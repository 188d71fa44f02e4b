package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"logdiver/internal/core"
	"logdiver/internal/fleet"
	"logdiver/internal/machine"
	"logdiver/internal/persist"
	"logdiver/internal/store"
)

// writeStateFile saves a small but well-formed daemon state file and
// returns its path.
func writeStateFile(t *testing.T, dir string) string {
	t.Helper()
	st := &persist.State{
		SavedAt: time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC),
		Epoch:   7,
		Fingerprint: persist.Fingerprint{
			Machine: "small", Nodes: 64, ParseMode: "lenient",
			Rules: persist.RulesBuiltin,
		},
		Syncer: &store.SyncerState{
			Pipeline: &core.IncrementalState{},
			Tailer: store.TailerState{Files: [3]store.TailFileState{
				{Offset: 1234, Inode: 42, InodeOK: true},
				{Offset: 56},
				{Offset: 78, Carry: []byte("partial")},
			}},
			Ingest: store.IngestStats{Rounds: 3, AccountingLines: 10, ApsysLines: 20, SyslogLines: 30},
		},
	}
	path := filepath.Join(dir, persist.StateFile)
	if err := persist.Save(path, st); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestStateSubcommand(t *testing.T) {
	dir := t.TempDir()
	path := writeStateFile(t, dir)

	out := captureStdout(t, func() {
		if err := run([]string{"state", "-file", path}); err != nil {
			t.Errorf("state on a valid file failed: %v", err)
		}
	})
	for _, want := range []string{
		"epoch:      7",
		"machine=small",
		"parse-mode=lenient",
		"3 rounds",
		"offset=1234",
		"carry=7B",
		"checksum ok",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("state output missing %q:\n%s", want, out)
		}
	}

	// -state-dir resolves to the directory's state.ldv.
	dirOut := captureStdout(t, func() {
		if err := run([]string{"state", "-state-dir", dir}); err != nil {
			t.Errorf("state -state-dir failed: %v", err)
		}
	})
	if dirOut != out {
		t.Error("-state-dir output differs from -file output for the same file")
	}
}

func TestStateSubcommandJSON(t *testing.T) {
	dir := t.TempDir()
	path := writeStateFile(t, dir)
	out := captureStdout(t, func() {
		if err := run([]string{"state", "-file", path, "-json"}); err != nil {
			t.Errorf("state -json failed: %v", err)
		}
	})
	var view struct {
		Epoch       uint64 `json:"epoch"`
		Fingerprint struct {
			Machine string `json:"machine"`
		} `json:"fingerprint"`
		Ingest struct {
			Rounds int `json:"rounds"`
		} `json:"ingest"`
		Tailer []struct {
			Archive string `json:"archive"`
			Offset  int64  `json:"offset"`
		} `json:"tailer"`
	}
	if err := json.Unmarshal([]byte(out), &view); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if view.Epoch != 7 || view.Fingerprint.Machine != "small" || view.Ingest.Rounds != 3 {
		t.Errorf("decoded view = %+v, want epoch 7 / machine small / 3 rounds", view)
	}
	if len(view.Tailer) != 3 || view.Tailer[0].Archive != "accounting" || view.Tailer[0].Offset != 1234 {
		t.Errorf("tailer view = %+v", view.Tailer)
	}
}

func TestStateSubcommandErrors(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"state"}); err == nil {
		t.Error("state without -file or -state-dir accepted")
	}
	if err := run([]string{"state", "-file", filepath.Join(dir, "missing.ldv")}); err == nil {
		t.Error("missing state file accepted")
	}
	// A corrupted file is rejected with the persist layer's reason.
	bad := filepath.Join(dir, "bad.ldv")
	if err := os.WriteFile(bad, []byte("this is not a state file at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"state", "-file", bad})
	if err == nil {
		t.Fatal("corrupted state file accepted")
	}
	if !strings.Contains(err.Error(), bad) {
		t.Errorf("error %q does not name the file", err)
	}
	// A checksum-corrupted but otherwise well-formed file is also rejected.
	good := writeStateFile(t, dir)
	data, rerr := os.ReadFile(good)
	if rerr != nil {
		t.Fatal(rerr)
	}
	data[len(data)-1] ^= 0x40
	if err := os.WriteFile(good, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"state", "-file", good}); err == nil {
		t.Error("bit-rotted state file accepted")
	}
}

// TestStateRejectsVersion2: a file in the version-2 format, which held the
// whole state as one gob value, is refused at its header with the
// VersionError naming both versions, before any of its payload is read.
func TestStateRejectsVersion2(t *testing.T) {
	path := writeStateFile(t, t.TempDir())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(data[len("LDVSTATE"):], 2)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = run([]string{"state", "-file", path})
	var ve *persist.VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("state on a version-2 file: %v (%T), want a *persist.VersionError", err, err)
	}
	if msg := err.Error(); !strings.Contains(msg, "version 2") || !strings.Contains(msg, fmt.Sprintf("version %d", persist.Version)) || !strings.Contains(msg, path) {
		t.Errorf("error %q does not name the file and both versions", msg)
	}
}

// TestStateCountsEventsLikeResult: on a state saved from a generated archive
// with new and duplicate log lines no Result has seen yet, `logdiver state`
// counts `events` after deduplication and `raw_events` before it, as the
// pipeline's Result (and so /v1/health) counts them.
func TestStateCountsEventsLikeResult(t *testing.T) {
	dir := t.TempDir()
	writeArchive(t, dir)
	var text [3][]byte
	for i, name := range []string{"accounting.log", "apsys.log", "syslog.log"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		text[i] = b
	}
	top, err := machine.New(machine.Small())
	if err != nil {
		t.Fatal(err)
	}
	inc, err := core.NewIncremental(top, time.UTC, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The second append is the syslog's second half and its second quarter
	// again.
	lines := strings.SplitAfter(string(text[2]), "\n")
	q := len(lines) / 4
	if _, err := inc.Append(core.Delta{Accounting: text[0], Apsys: text[1], Syslog: []byte(strings.Join(lines[:2*q], ""))}); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Result(); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Append(core.Delta{Syslog: []byte(strings.Join(lines[2*q:], "") + strings.Join(lines[q:2*q], ""))}); err != nil {
		t.Fatal(err)
	}
	// The state shares the pipeline's carries: save it before the Result.
	pst, err := inc.State()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, persist.StateFile)
	if err := persist.Save(path, &persist.State{Syncer: &store.SyncerState{Pipeline: pst}}); err != nil {
		t.Fatal(err)
	}
	res, err := inc.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.RawEvents <= len(res.Events) || len(res.Events) == 0 {
		t.Fatalf("fixture: %d raw events for %d kept, want duplicates", res.RawEvents, len(res.Events))
	}
	out := captureStdout(t, func() {
		if err := run([]string{"state", "-file", path, "-json"}); err != nil {
			t.Errorf("state -json failed: %v", err)
		}
	})
	var view struct {
		Pipeline struct {
			Events    int `json:"events"`
			RawEvents int `json:"raw_events"`
		} `json:"pipeline"`
	}
	if err := json.Unmarshal([]byte(out), &view); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if view.Pipeline.Events != len(res.Events) || view.Pipeline.RawEvents != res.RawEvents {
		t.Errorf("state counts %d events, %d raw; the Result %d and %d",
			view.Pipeline.Events, view.Pipeline.RawEvents, len(res.Events), res.RawEvents)
	}
}

// TestStateReadsDaemonState: `logdiver state -state-dir` verifies a state
// file as the daemon writes it — saved by the daemon's runtime,
// fleet.Manager, over a real pipeline, on its shutdown save — not only the
// hand-built fixture above, and reports the epoch and runs it holds.
func TestStateReadsDaemonState(t *testing.T) {
	dir, stateDir := t.TempDir(), t.TempDir()
	writeArchive(t, dir)
	mgr, err := fleet.NewManager(fleet.ManagerConfig{Config: &fleet.Config{Shards: []fleet.ShardConfig{{
		Name: "small", ArchiveDir: dir, Machine: fleet.MachineSmall, StateDir: stateDir,
	}}}})
	if err != nil {
		t.Fatal(err)
	}
	if round := mgr.SyncRound(t.Context()); !round.Installed || round.Shards[0].Err != nil {
		t.Fatalf("first round: %+v", round)
	}
	mgr.PersistAll()
	sh := mgr.View().Shards[0]

	out := captureStdout(t, func() {
		if err := run([]string{"state", "-state-dir", stateDir, "-json"}); err != nil {
			t.Errorf("state over the daemon's file: %v", err)
		}
	})
	var view stateView
	if err := json.Unmarshal([]byte(out), &view); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if view.Epoch != sh.Epoch || view.Pipeline.Done != sh.Runs || view.Fingerprint.Machine != fleet.MachineSmall {
		t.Errorf("state reports epoch %d, %d completed runs, machine %q; the daemon served epoch %d with %d runs",
			view.Epoch, view.Pipeline.Done, view.Fingerprint.Machine, sh.Epoch, sh.Runs)
	}
}
