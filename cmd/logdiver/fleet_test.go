package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"logdiver"
	"logdiver/internal/fleet"
	"logdiver/internal/persist"
	"logdiver/internal/report"
	"logdiver/internal/rulecheck"
	"logdiver/internal/serve"
	"logdiver/internal/store"
)

// runCapture runs the CLI with stdout redirected to a buffer file.
func runCapture(t *testing.T, args []string) (string, error) {
	t.Helper()
	outPath := filepath.Join(t.TempDir(), "out.txt")
	outFile, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	origStdout := os.Stdout
	os.Stdout = outFile
	runErr := run(args)
	os.Stdout = origStdout
	outFile.Close()
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	return string(data), runErr
}

func TestGenerateFleetLayout(t *testing.T) {
	out := t.TempDir()
	if err := run([]string{"generate", "-fleet", "2", "-days", "1", "-seed", "9", "-out", out}); err != nil {
		t.Fatal(err)
	}

	cfg, err := fleet.LoadConfig(filepath.Join(out, "fleet.conf"))
	if err != nil {
		t.Fatalf("fleet.conf unusable: %v", err)
	}
	if len(cfg.Shards) != 2 {
		t.Fatalf("fleet.conf has %d shards, want 2", len(cfg.Shards))
	}
	for _, sc := range cfg.Shards {
		// LoadConfig resolves the relative archive-dir against the config
		// file's directory, so the shard dirs must exist with all archives.
		for _, name := range []string{"accounting.log", "apsys.log", "syslog.log", "truth.jsonl"} {
			info, err := os.Stat(filepath.Join(sc.ArchiveDir, name))
			if err != nil {
				t.Fatalf("shard %s missing %s: %v", sc.Name, name, err)
			}
			if info.Size() == 0 {
				t.Errorf("shard %s: empty %s", sc.Name, name)
			}
		}
		if sc.Machine != fleet.MachineSmall {
			t.Errorf("shard %s machine %q, want small", sc.Name, sc.Machine)
		}
	}
}

func TestGenerateFleetWindowAppend(t *testing.T) {
	out := t.TempDir()
	if err := run([]string{"generate", "-fleet", "2", "-days", "1", "-seed", "9", "-out", out}); err != nil {
		t.Fatal(err)
	}
	size := func(machine string) int64 {
		info, err := os.Stat(filepath.Join(out, machine, "accounting.log"))
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	s0, s1 := size("m00"), size("m01")

	// Growing one shard by a window touches only that shard's archives.
	if err := run([]string{"generate", "-fleet", "2", "-days", "1", "-seed", "9", "-out", out,
		"-fleet-window", "1", "-fleet-only", "m01"}); err != nil {
		t.Fatal(err)
	}
	if got := size("m00"); got != s0 {
		t.Errorf("m00 accounting grew from %d to %d despite -fleet-only m01", s0, got)
	}
	if got := size("m01"); got <= s1 {
		t.Errorf("m01 accounting did not grow: %d -> %d", s1, got)
	}
}

func TestAnalyzeFleetConfig(t *testing.T) {
	out := t.TempDir()
	if err := run([]string{"generate", "-fleet", "2", "-days", "1", "-seed", "9", "-out", out}); err != nil {
		t.Fatal(err)
	}

	text, err := runCapture(t, []string{"analyze", "-fleet-config", filepath.Join(out, "fleet.conf"), "-format", "md"})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"F1", "Fleet shards", "m00", "m01", "F2", "Fleet outcome breakdown", "F3", "2 machines merged"} {
		if !strings.Contains(text, want) {
			t.Errorf("fleet report missing %q", want)
		}
	}
}

// referenceFleet is the batch path analyze -fleet-config ran before it ran
// the daemon's runtime, kept as that runtime's oracle: every shard's archive
// directory through logdiver.Analyze (a missing archive reads as empty) and
// store.Build, stamped with the shard's name, the snapshots folded by
// store.Merge. The error of a failing shard names it.
func referenceFleet(confPath string, opts logdiver.Options) ([]fleet.ShardStatus, *store.Snapshot, error) {
	cfg, err := fleet.LoadConfig(confPath)
	if err != nil {
		return nil, nil, err
	}
	var shards []fleet.ShardStatus
	var snaps []*store.Snapshot
	for _, sc := range cfg.Shards {
		snap, err := referenceShard(sc, opts)
		if err != nil {
			return nil, nil, fmt.Errorf("shard %q: %w", sc.Name, err)
		}
		shards = append(shards, fleet.ShardStatus{Name: sc.Name, Snap: snap})
		snaps = append(snaps, snap)
	}
	return shards, store.Merge(snaps...), nil
}

func referenceShard(sc fleet.ShardConfig, opts logdiver.Options) (*store.Snapshot, error) {
	top, err := fleet.Topology(sc.Machine)
	if err != nil {
		return nil, err
	}
	archives := logdiver.Archives{}
	for _, a := range []struct {
		name string
		dst  *io.Reader
	}{
		{store.AccountingFile, &archives.Accounting},
		{store.ApsysFile, &archives.Apsys},
		{store.SyslogFile, &archives.Syslog},
	} {
		b, err := os.ReadFile(filepath.Join(sc.ArchiveDir, a.name))
		if err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		if err == nil {
			*a.dst = bytes.NewReader(b)
		}
	}
	res, err := logdiver.Analyze(archives, top, opts)
	if err != nil {
		return nil, err
	}
	snap, err := store.Build(res, top, store.IngestStats{Rounds: 1}, time.Now())
	if err != nil {
		return nil, err
	}
	snap.Machine = sc.Name
	return snap, nil
}

// matchReference checks that analyze -fleet-config conf, with flags, prints
// referenceFleet's F1-F3 under opts byte for byte in every format, and
// returns what it printed in csv.
func matchReference(t *testing.T, name, conf string, flags []string, opts logdiver.Options) string {
	t.Helper()
	shards, merged, err := referenceFleet(conf, opts)
	if err != nil {
		t.Fatal(err)
	}
	var got string
	for _, format := range []string{"ascii", "md", "csv"} {
		var want strings.Builder
		if err := report.Write(&want, format, fleetTables(shards, merged)); err != nil {
			t.Fatal(err)
		}
		got, err = runCapture(t, append([]string{"analyze", "-fleet-config", conf, "-format", format}, flags...))
		if err != nil {
			t.Fatalf("%s %s: %v", name, format, err)
		}
		if got != want.String() {
			t.Errorf("%s %s: analyze -fleet-config printed\n%s\nthe reference prints\n%s", name, format, got, want.String())
		}
	}
	return got
}

// tear removes the newline that ends a file, leaving its last line
// unterminated, as a crash or a copy of a live log does.
func tear(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(b, []byte("\n")) {
		t.Fatalf("%s does not end in a newline", path)
	}
	if err := os.WriteFile(path, b[:len(b)-1], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestAnalyzeFleetMatchesReference holds analyze -fleet-config, which runs a
// fleet.Manager, to referenceFleet: F1-F3 byte for byte in every format,
// with the built-in taxonomy, with a -rules file (which the command once
// ignored under -fleet-config) and with a shard whose archives end in an
// unterminated line; and in strict mode over a fleet with one malformed
// line, terminated or not, the same error, naming the shard.
func TestAnalyzeFleetMatchesReference(t *testing.T) {
	out := t.TempDir()
	if err := run([]string{"generate", "-fleet", "3", "-days", "1", "-seed", "9", "-out", out}); err != nil {
		t.Fatal(err)
	}
	conf := filepath.Join(out, "fleet.conf")
	rulePath := filepath.Join(out, "site.rules")
	if err := os.WriteFile(rulePath, []byte("hb NODE_HEARTBEAT CRIT (?i)heartbeat fault\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	siteRules, _, err := rulecheck.LoadClassifier(rulePath, false, nil)
	if err != nil {
		t.Fatal(err)
	}

	builtin := matchReference(t, "builtin", conf, nil, logdiver.Options{})
	withRules := matchReference(t, "rules", conf, []string{"-rules", rulePath, "-validate-rules=false"},
		logdiver.Options{Classifier: siteRules})
	if withRules == builtin {
		t.Error("the -rules file changed nothing: the fixture cannot tell it was applied")
	}

	// A live tail holds an unterminated last line back for its writer; a
	// batch analysis reads it, as logdiver.Analyze does.
	for _, name := range []string{store.AccountingFile, store.ApsysFile, store.SyslogFile} {
		tear(t, filepath.Join(out, "m02", name))
	}
	matchReference(t, "torn", conf, nil, logdiver.Options{})

	// Strict mode: the generated syslogs carry malformed lines by design, so
	// drop them and corrupt one line of one shard's accounting archive.
	for _, m := range []string{"m00", "m01", "m02"} {
		if err := os.Remove(filepath.Join(out, m, store.SyslogFile)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := runCapture(t, []string{"analyze", "-fleet-config", conf, "-parse-mode", "strict"}); err != nil {
		t.Fatalf("strict analysis of the clean fleet: %v", err)
	}
	acc := filepath.Join(out, "m01", store.AccountingFile)
	b, err := os.ReadFile(acc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(acc, append(b, "not an accounting record\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, last := range []string{"terminated", "torn"} {
		if last == "torn" {
			tear(t, acc)
		}
		_, _, wantErr := referenceFleet(conf, logdiver.Options{ParseMode: logdiver.ParseStrict})
		_, gotErr := runCapture(t, []string{"analyze", "-fleet-config", conf, "-parse-mode", "strict"})
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() || !strings.Contains(gotErr.Error(), `shard "m01"`) {
			t.Errorf("strict analysis with a malformed %s last m01 line: err %v, reference %v; want the same error naming shard m01", last, gotErr, wantErr)
		}
	}
}

// TestAnalyzeFleetF1MatchesHealth: the F1 rows of analyze -fleet-config sum
// to the runs, jobs and events the daemon's /v1/health reports at its top
// level for the same fleet config — serve over the daemon's runtime after
// its first round. referenceFleet cannot see a fault in F1 itself, since
// both sides of TestAnalyzeFleetMatchesReference render it with fleetTables.
func TestAnalyzeFleetF1MatchesHealth(t *testing.T) {
	out := t.TempDir()
	if err := run([]string{"generate", "-fleet", "3", "-days", "1", "-seed", "1", "-out", out}); err != nil {
		t.Fatal(err)
	}
	conf := filepath.Join(out, "fleet.conf")
	text, err := runCapture(t, []string{"analyze", "-fleet-config", conf, "-format", "csv"})
	if err != nil {
		t.Fatal(err)
	}
	_, f1, _ := strings.Cut(text, "# F1: Fleet shards\n")
	f1, _, _ = strings.Cut(f1, "\n# ")
	rows, err := csv.NewReader(strings.NewReader(f1)).ReadAll()
	if err != nil || len(rows) != 4 {
		t.Fatalf("F1 of\n%s\nparsed to %d rows: %v", text, len(rows), err)
	}
	var batch [3]int // runs, jobs, events
	for _, row := range rows[1:] {
		for i := range batch {
			n, err := strconv.Atoi(strings.ReplaceAll(row[1+i], ",", ""))
			if err != nil {
				t.Fatalf("F1 row %v: %v", row, err)
			}
			batch[i] += n
		}
	}

	cfg, err := fleet.LoadConfig(conf)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := fleet.NewManager(fleet.ManagerConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if round := mgr.SyncRound(t.Context()); !round.Installed {
		t.Fatalf("first round installed nothing: %+v", round)
	}
	srv, err := serve.New(serve.Config{Fleet: mgr})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct{ Runs, Jobs, Events int }
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if daemon := [3]int{h.Runs, h.Jobs, h.Events}; daemon != batch || batch[0] == 0 {
		t.Errorf("F1 sums to %v runs/jobs/events, /v1/health reports %v", batch, daemon)
	}
}

// TestAnalyzeFleetRejectsRules: under -fleet-config a -rules file goes
// through the same linter gate as in a single-archive analysis.
func TestAnalyzeFleetRejectsRules(t *testing.T) {
	out := t.TempDir()
	if err := run([]string{"generate", "-fleet", "2", "-days", "1", "-seed", "9", "-out", out}); err != nil {
		t.Fatal(err)
	}
	_, err := runCapture(t, []string{"analyze", "-fleet-config", filepath.Join(out, "fleet.conf"), "-rules", shadowedRules})
	if err == nil || !strings.Contains(err.Error(), "rulecheck") {
		t.Errorf("analyze -fleet-config accepted a rule set with error findings (err=%v)", err)
	}
}

// TestAnalyzeFleetIgnoresStateDirs: generate writes a fleet.conf whose
// shards name state dirs, the ones a daemon on the same file uses. A batch
// analysis reads none of them — in strict mode an unusable state file would
// be a startup error — and creates nothing there.
func TestAnalyzeFleetIgnoresStateDirs(t *testing.T) {
	out := t.TempDir()
	if err := run([]string{"generate", "-fleet", "2", "-days", "1", "-seed", "9", "-out", out}); err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"m00", "m01"} {
		if err := os.Remove(filepath.Join(out, m, store.SyslogFile)); err != nil { // malformed by design
			t.Fatal(err)
		}
	}
	stateRoot := filepath.Join(out, "state")
	planted := filepath.Join(stateRoot, "m00", persist.StateFile)
	if err := os.MkdirAll(filepath.Dir(planted), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(planted, []byte("not a state file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCapture(t, []string{"analyze", "-fleet-config", filepath.Join(out, "fleet.conf"), "-parse-mode", "strict"}); err != nil {
		t.Fatalf("analysis read a shard's state: %v", err)
	}
	var files []string
	err := filepath.WalkDir(stateRoot, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0] != planted {
		t.Errorf("state tree after analysis: %v, want only the planted %s", files, planted)
	}
	if b, err := os.ReadFile(planted); err != nil || string(b) != "not a state file" {
		t.Errorf("planted state file changed: %q, %v", b, err)
	}
}

func TestFleetFlagErrors(t *testing.T) {
	out := t.TempDir()
	if err := run([]string{"generate", "-fleet-window", "1", "-out", out}); err == nil {
		t.Error("-fleet-window without -fleet accepted")
	}
	if err := run([]string{"generate", "-fleet-only", "m00", "-out", out}); err == nil {
		t.Error("-fleet-only without -fleet accepted")
	}
	if err := run([]string{"generate", "-fleet", "2", "-days", "1", "-out", out, "-fleet-only", "nope"}); err == nil {
		t.Error("-fleet-only with unknown machine accepted")
	}
	if err := run([]string{"analyze", "-fleet-config", "conf", "-apsys", "x"}); err == nil {
		t.Error("analyze -fleet-config with -apsys accepted")
	}
	if err := run([]string{"analyze", "-fleet-config", filepath.Join(out, "missing.conf")}); err == nil {
		t.Error("analyze with missing fleet config accepted")
	}
}
