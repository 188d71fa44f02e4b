package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"logdiver"
	"logdiver/internal/coalesce"
)

// writeArchive generates a tiny dataset and writes the four archive files
// into dir.
func writeArchive(t *testing.T, dir string) {
	t.Helper()
	cfg := logdiver.ScaledGeneratorConfig(1)
	cfg.Machine = logdiver.SmallMachine()
	cfg.Seed = 21
	cfg.Workload.JobsPerDay = 150
	cfg.Workload.XECapabilitySizes = []int{256}
	cfg.Workload.XKCapabilitySizes = []int{64}
	cfg.Workload.SmallSizeMax = 64
	ds, err := logdiver.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, fn func(f *os.File) error) {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := fn(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	write("accounting.log", func(f *os.File) error { return ds.WriteAccounting(f) })
	write("apsys.log", func(f *os.File) error { return ds.WriteApsys(f) })
	write("syslog.log", func(f *os.File) error { return ds.WriteErrorLog(f) })
	write("truth.jsonl", func(f *os.File) error { return ds.WriteTruth(f) })
}

func TestRunUsageErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("no args accepted")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{"analyze"}); err == nil {
		t.Error("analyze without -apsys accepted")
	}
	if err := run([]string{"analyze", "-apsys", "x", "-machine", "bogus"}); err == nil {
		t.Error("bogus machine accepted")
	}
	if err := run([]string{"analyze", "-apsys", "/does/not/exist", "-machine", "small"}); err == nil {
		t.Error("missing file accepted")
	}
	// The worker count is GOMAXPROCS's alone: -parallelism is undefined.
	for _, sub := range []string{"analyze", "simulate", "generate"} {
		if err := run([]string{sub, "-parallelism", "2"}); err == nil || !strings.Contains(err.Error(), "parallelism") {
			t.Errorf("%s -parallelism 2: err %v, want one naming parallelism", sub, err)
		}
	}
}

// TestUsageNamesEverySubcommand pins the usage line and the
// unknown-subcommand error to the nine subcommands run dispatches on.
func TestUsageNamesEverySubcommand(t *testing.T) {
	names := []string{"analyze", "avail", "coalesce", "generate", "lint-rules", "mutate", "simulate", "state", "version"}
	usage, unknown := run(nil), run([]string{"bogus"})
	if usage == nil || unknown == nil {
		t.Fatalf("run(nil) = %v, run(bogus) = %v; want errors", usage, unknown)
	}
	if want := "usage: logdiver <" + strings.Join(names, "|") + "> [flags]"; usage.Error() != want {
		t.Errorf("usage = %q, want %q", usage, want)
	}
	if want := "(want one of " + strings.Join(names, ", ") + ")"; !strings.HasSuffix(unknown.Error(), want) {
		t.Errorf("unknown-subcommand error = %q, want it to end %q", unknown, want)
	}
}

func TestAnalyzeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	writeArchive(t, dir)

	// Redirect stdout to a file to keep test output clean and capture it.
	outPath := filepath.Join(dir, "out.txt")
	outFile, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	origStdout := os.Stdout
	os.Stdout = outFile
	defer func() { os.Stdout = origStdout }()

	err = run([]string{
		"analyze",
		"-accounting", filepath.Join(dir, "accounting.log"),
		"-apsys", filepath.Join(dir, "apsys.log"),
		"-syslog", filepath.Join(dir, "syslog.log"),
		"-truth", filepath.Join(dir, "truth.jsonl"),
		"-machine", "small",
		"-format", "md",
	})
	os.Stdout = origStdout
	outFile.Close()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	for _, want := range []string{"E1", "E2", "E9", "A2", "1.53%"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestAnalyzeFormats(t *testing.T) {
	dir := t.TempDir()
	writeArchive(t, dir)
	for _, format := range []string{"ascii", "csv"} {
		outFile, err := os.Create(filepath.Join(dir, "out-"+format))
		if err != nil {
			t.Fatal(err)
		}
		origStdout := os.Stdout
		os.Stdout = outFile
		err = run([]string{
			"analyze",
			"-apsys", filepath.Join(dir, "apsys.log"),
			"-syslog", filepath.Join(dir, "syslog.log"),
			"-machine", "small",
			"-format", format,
		})
		os.Stdout = origStdout
		outFile.Close()
		if err != nil {
			t.Fatalf("format %s: %v", format, err)
		}
	}
	// Unknown format is rejected.
	err := run([]string{
		"analyze",
		"-apsys", filepath.Join(dir, "apsys.log"),
		"-machine", "small",
		"-format", "xml",
	})
	if err == nil {
		t.Error("unknown format accepted")
	}
}

func TestCoalesceSubcommand(t *testing.T) {
	dir := t.TempDir()
	writeArchive(t, dir)
	outFile, err := os.Create(filepath.Join(dir, "coalesce.out"))
	if err != nil {
		t.Fatal(err)
	}
	origStdout := os.Stdout
	os.Stdout = outFile
	err = run([]string{"coalesce", "-syslog", filepath.Join(dir, "syslog.log"), "-top", "5"})
	os.Stdout = origStdout
	outFile.Close()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "coalesce.out"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "reduction") {
		t.Errorf("missing stats line:\n%s", data)
	}
	if err := run([]string{"coalesce"}); err == nil {
		t.Error("coalesce without -syslog accepted")
	}
	if err := run([]string{"coalesce", "-syslog", "/does/not/exist"}); err == nil {
		t.Error("missing syslog file accepted")
	}
}

// TestCoalesceMatchesAnalyze holds the coalesce subcommand to the pipeline:
// over the same syslog and machine model its reduction chain must be the
// one analyze's events give (the chain E10 renders). Tupling is keyed by node, so a subcommand that does
// not resolve hosts to nodes collapses every node into one tuple stream.
func TestCoalesceMatchesAnalyze(t *testing.T) {
	dir := t.TempDir()
	writeArchive(t, dir)
	sysPath := filepath.Join(dir, "syslog.log")

	archives, top, closeAll, err := openArchives("", "", sysPath, "small")
	if err != nil {
		t.Fatal(err)
	}
	res, err := logdiver.Analyze(archives, top, logdiver.Options{})
	closeAll()
	if err != nil {
		t.Fatal(err)
	}
	_, _, want := coalesce.Pipeline(res.Events, res.RawEvents, coalesce.DefaultTemporalWindow, coalesce.DefaultSpatialWindow)
	if want.Tuples == want.Groups {
		t.Fatalf("fixture cannot tell per-node tupling from collapsed tupling: %s", want)
	}

	out := captureStdout(t, func() {
		if err := run([]string{"coalesce", "-syslog", sysPath, "-machine", "small"}); err != nil {
			t.Fatal(err)
		}
	})
	if got, _, _ := strings.Cut(out, "\n"); got != want.String() {
		t.Errorf("coalesce stats = %q, analyze's events give %q", got, want)
	}
	if err := run([]string{"coalesce", "-syslog", sysPath, "-machine", "bogus"}); err == nil {
		t.Error("bogus machine accepted")
	}
}

func TestAnalyzeWithRuleFile(t *testing.T) {
	dir := t.TempDir()
	writeArchive(t, dir)
	// A minimal rule file that only understands heartbeat faults.
	rules := "hb NODE_HEARTBEAT CRIT (?i)heartbeat fault\n"
	rulePath := filepath.Join(dir, "rules.txt")
	if err := os.WriteFile(rulePath, []byte(rules), 0o644); err != nil {
		t.Fatal(err)
	}
	outFile, err := os.Create(filepath.Join(dir, "rules.out"))
	if err != nil {
		t.Fatal(err)
	}
	origStdout := os.Stdout
	os.Stdout = outFile
	err = run([]string{
		"analyze",
		"-apsys", filepath.Join(dir, "apsys.log"),
		"-syslog", filepath.Join(dir, "syslog.log"),
		"-machine", "small",
		"-rules", rulePath,
	})
	os.Stdout = origStdout
	outFile.Close()
	if err != nil {
		t.Fatal(err)
	}
	// A broken rule file is rejected.
	if err := os.WriteFile(rulePath, []byte("broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{
		"analyze",
		"-apsys", filepath.Join(dir, "apsys.log"),
		"-machine", "small",
		"-rules", rulePath,
	})
	if err == nil {
		t.Error("broken rule file accepted")
	}
}

func TestAvailSubcommand(t *testing.T) {
	dir := t.TempDir()
	writeArchive(t, dir)
	outFile, err := os.Create(filepath.Join(dir, "avail.out"))
	if err != nil {
		t.Fatal(err)
	}
	origStdout := os.Stdout
	os.Stdout = outFile
	err = run([]string{"avail", "-syslog", filepath.Join(dir, "syslog.log"), "-machine", "small"})
	os.Stdout = origStdout
	outFile.Close()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "avail.out"))
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	for _, want := range []string{"node failures", "availability", "longest outages"} {
		if !strings.Contains(out, want) {
			t.Errorf("avail output missing %q:\n%s", want, out)
		}
	}
	if err := run([]string{"avail"}); err == nil {
		t.Error("avail without -syslog accepted")
	}
}

func TestGenerateSubcommand(t *testing.T) {
	dir := t.TempDir()
	// The generate subcommand always uses the full topology; keep it to a
	// fraction of a day... it does not support fractional days, so use a
	// single day and accept ~2s of work.
	if testing.Short() {
		t.Skip("full-topology generation; skipped in -short")
	}
	err := run([]string{"generate", "-days", "1", "-seed", "9", "-out", dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"accounting.log", "apsys.log", "syslog.log", "truth.jsonl"} {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", name)
		}
	}
}

// TestGenerateAnalyzeMatchesInMemory: `generate` followed by `analyze -truth
// -format md` over its directory prints exactly the tables
// logdiver.Experiments renders over the same dataset analyzed from
// in-memory archives — the one-shot regeneration the two commands replace.
func TestGenerateAnalyzeMatchesInMemory(t *testing.T) {
	for _, tc := range []struct {
		machine string
		days    int
		cfg     func(days int) logdiver.GeneratorConfig
	}{
		{"small", 3, logdiver.SmallGeneratorConfig},
		{"bluewaters", 1, logdiver.ScaledGeneratorConfig},
	} {
		t.Run(tc.machine, func(t *testing.T) {
			dir := t.TempDir()
			days := strconv.Itoa(tc.days)
			if err := run([]string{"generate", "-machine", tc.machine, "-days", days, "-seed", "7", "-out", dir}); err != nil {
				t.Fatal(err)
			}
			got := captureStdout(t, func() {
				if err := run([]string{"analyze", "-machine", tc.machine, "-format", "md",
					"-accounting", filepath.Join(dir, "accounting.log"),
					"-apsys", filepath.Join(dir, "apsys.log"),
					"-syslog", filepath.Join(dir, "syslog.log"),
					"-truth", filepath.Join(dir, "truth.jsonl"),
				}); err != nil {
					t.Fatal(err)
				}
			})

			cfg := tc.cfg(tc.days)
			cfg.Seed = 7
			ds, err := logdiver.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var acc, aps, sys bytes.Buffer
			for _, w := range []error{ds.WriteAccounting(&acc), ds.WriteApsys(&aps), ds.WriteErrorLog(&sys)} {
				if w != nil {
					t.Fatal(w)
				}
			}
			res, err := logdiver.Analyze(logdiver.Archives{Accounting: &acc, Apsys: &aps, Syslog: &sys}, ds.Topology, logdiver.Options{})
			if err != nil {
				t.Fatal(err)
			}
			tables, err := logdiver.Experiments(res, ds.Topology, ds.Truth)
			if err != nil {
				t.Fatal(err)
			}
			var want strings.Builder
			for _, tbl := range tables {
				if err := tbl.RenderMarkdown(&want); err != nil {
					t.Fatal(err)
				}
			}
			if !strings.Contains(got, "### E9:") || !strings.Contains(got, "### A2:") {
				t.Fatalf("analyze -truth printed no truth tables:\n%s", got)
			}
			if got != want.String() {
				t.Errorf("generate + analyze printed\n%s\nin-memory Experiments renders\n%s", got, want.String())
			}
		})
	}
}

// captureStdout redirects os.Stdout into a file for the duration of fn and
// returns what was written.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = orig }()
	fn()
	os.Stdout = orig
	f.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

const shadowedRules = "../../internal/rulecheck/testdata/shadowed.rules"

func TestLintRulesBuiltinClean(t *testing.T) {
	out := captureStdout(t, func() {
		if err := run([]string{"lint-rules"}); err != nil {
			t.Errorf("built-in rules failed lint: %v", err)
		}
	})
	if strings.TrimSpace(out) != "" {
		t.Errorf("built-in rules produced findings:\n%s", out)
	}
}

func TestLintRulesShadowedFile(t *testing.T) {
	var err error
	out := captureStdout(t, func() {
		err = run([]string{"lint-rules", "-rules", shadowedRules})
	})
	if err == nil {
		t.Fatal("shadowed rule file passed lint")
	}
	// The deliberately shadowed rule must be reported with the shadowing
	// rule's name and both line numbers.
	for _, want := range []string{
		`rule "mce-dup" (line 4)`,
		`earlier rule "mce-wide" (line 3)`,
		"[shadow-structural]",
		"[empty-match]",
		"[dup-name]",
		"[severity-mismatch]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("lint output missing %q:\n%s", want, out)
		}
	}
}

// TestLintRulesGapInsideGroup: a ".*" at the edge of a group belongs to the
// chain it is in, so `lustre(.*timeout)` lints clean: its filter is the
// exact chain "lustre", "timeout" and no regexp runs for it.
func TestLintRulesGapInsideGroup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "site.rules")
	if err := os.WriteFile(path, []byte("grouped-gap FS_TIMEOUT WARN (?i)lustre(.*timeout)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var err error
	out := captureStdout(t, func() {
		err = run([]string{"lint-rules", "-rules", path})
	})
	if err != nil {
		t.Errorf("lint-rules rejected the rule file: %v", err)
	}
	if strings.Contains(out, "[regexp-on-hot-path]") {
		t.Errorf("lint output has a regexp-on-hot-path finding:\n%s", out)
	}
}

func TestLintRulesJSON(t *testing.T) {
	var err error
	out := captureStdout(t, func() {
		err = run([]string{"lint-rules", "-json", "-rules", shadowedRules})
	})
	if err == nil {
		t.Fatal("shadowed rule file passed lint")
	}
	var findings []struct {
		Check    string `json:"check"`
		Severity string `json:"severity"`
		Rule     string `json:"rule"`
		Line     int    `json:"line"`
		Message  string `json:"message"`
	}
	if jerr := json.Unmarshal([]byte(out), &findings); jerr != nil {
		t.Fatalf("invalid JSON: %v\n%s", jerr, out)
	}
	if len(findings) == 0 {
		t.Fatal("no findings decoded")
	}
	seen := map[string]bool{}
	for _, f := range findings {
		seen[f.Check] = true
		if f.Severity != "error" && f.Severity != "warn" {
			t.Errorf("finding %q has severity %q", f.Check, f.Severity)
		}
	}
	for _, check := range []string{"shadow-structural", "empty-match", "dup-name"} {
		if !seen[check] {
			t.Errorf("JSON output missing check %q", check)
		}
	}

	// The clean built-in set must encode as [], not null.
	out = captureStdout(t, func() {
		if err := run([]string{"lint-rules", "-json"}); err != nil {
			t.Errorf("built-in rules failed lint: %v", err)
		}
	})
	if strings.TrimSpace(out) != "[]" {
		t.Errorf("clean set encoded as %q, want []", strings.TrimSpace(out))
	}
}

func TestMutateSubcommand(t *testing.T) {
	dir := t.TempDir()
	writeArchive(t, dir)
	in := filepath.Join(dir, "syslog.log")
	out := filepath.Join(dir, "syslog.corrupt.log")
	manifest := filepath.Join(dir, "manifest.json")
	err := run([]string{
		"mutate", "-in", in, "-out", out, "-manifest", manifest,
		"-seed", "5", "-budget", "0.01", "-ops", "truncate,encoding", "-max-per-op", "4",
	})
	if err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	mutated, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(orig) == string(mutated) {
		t.Error("mutate left the archive unchanged")
	}
	mf, err := os.Open(manifest)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	var m struct {
		Seed      int64 `json:"seed"`
		Mutations []struct {
			Op string `json:"op"`
		} `json:"mutations"`
	}
	if err := json.NewDecoder(mf).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Seed != 5 {
		t.Errorf("manifest seed = %d, want 5", m.Seed)
	}
	if len(m.Mutations) == 0 || len(m.Mutations) > 8 {
		t.Errorf("%d mutations recorded, want 1..8 (two ops, max 4 each)", len(m.Mutations))
	}
	for _, mu := range m.Mutations {
		if mu.Op != "truncate" && mu.Op != "encoding" {
			t.Errorf("operator %q ran outside the -ops subset", mu.Op)
		}
	}

	// Same seed, same input: byte-identical output.
	out2 := filepath.Join(dir, "syslog.corrupt2.log")
	err = run([]string{
		"mutate", "-in", in, "-out", out2,
		"-seed", "5", "-budget", "0.01", "-ops", "truncate,encoding", "-max-per-op", "4",
	})
	if err != nil {
		t.Fatal(err)
	}
	mutated2, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if string(mutated) != string(mutated2) {
		t.Error("same seed produced different mutated archives")
	}

	// Flag validation.
	if err := run([]string{"mutate", "-in", in}); err == nil {
		t.Error("mutate without -out accepted")
	}
	if err := run([]string{"mutate", "-in", in, "-out", out, "-ops", "bogus"}); err == nil {
		t.Error("unknown operator accepted")
	}
	if err := run([]string{"mutate", "-in", "/does/not/exist", "-out", out}); err == nil {
		t.Error("missing input file accepted")
	}
}

func TestAnalyzeParseModeFlag(t *testing.T) {
	dir := t.TempDir()
	writeArchive(t, dir)
	in := filepath.Join(dir, "accounting.log")
	corrupt := filepath.Join(dir, "accounting.corrupt.log")
	if err := run([]string{
		"mutate", "-in", in, "-out", corrupt,
		"-seed", "3", "-ops", "encoding", "-max-per-op", "2",
	}); err != nil {
		t.Fatal(err)
	}
	// The generated syslog archive carries intentional noise lines, so the
	// strict-mode cases run without it (only clean accounting + apsys).
	args := func(acc, mode string) []string {
		return []string{
			"analyze",
			"-accounting", acc,
			"-apsys", filepath.Join(dir, "apsys.log"),
			"-machine", "small",
			"-parse-mode", mode,
		}
	}
	// Strict mode fails on the corrupted archive with a line-numbered error.
	err := run(args(corrupt, "strict"))
	if err == nil {
		t.Fatal("strict mode accepted a corrupted accounting archive")
	}
	var perr *logdiver.ParseError
	if !errors.As(err, &perr) {
		t.Fatalf("strict error %v is not a *ParseError", err)
	}
	if perr.Archive != "accounting" || perr.Line < 1 {
		t.Errorf("strict error names %q line %d, want accounting line >= 1", perr.Archive, perr.Line)
	}
	// Lenient mode analyzes the same corrupted archive successfully.
	_ = captureStdout(t, func() {
		if err := run(args(corrupt, "lenient")); err != nil {
			t.Errorf("lenient mode failed on corrupted archive: %v", err)
		}
	})
	// Strict mode passes on the clean archive.
	_ = captureStdout(t, func() {
		if err := run(args(in, "strict")); err != nil {
			t.Errorf("strict mode failed on clean archive: %v", err)
		}
	})
	// Unknown mode is rejected.
	if err := run(args(in, "bogus")); err == nil {
		t.Error("unknown parse mode accepted")
	}
}

func TestAnalyzeValidatesRules(t *testing.T) {
	dir := t.TempDir()
	writeArchive(t, dir)
	args := []string{
		"analyze",
		"-apsys", filepath.Join(dir, "apsys.log"),
		"-syslog", filepath.Join(dir, "syslog.log"),
		"-machine", "small",
		"-rules", shadowedRules,
	}
	if err := run(args); err == nil || !strings.Contains(err.Error(), "rulecheck") {
		t.Errorf("analyze accepted a rule set with error findings (err=%v)", err)
	}
	// The escape hatch disables the gate.
	_ = captureStdout(t, func() {
		if err := run(append(args, "-validate-rules=false")); err != nil {
			t.Errorf("analyze with -validate-rules=false failed: %v", err)
		}
	})
}
