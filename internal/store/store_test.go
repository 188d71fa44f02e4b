package store

import (
	"bytes"
	"encoding/gob"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"logdiver/internal/core"
	"logdiver/internal/gen"
	"logdiver/internal/machine"
)

// smallDataset generates a small synthetic archive set, optionally offset
// in time and reseeded so successive datasets model an archive growing with
// fresh activity.
func smallDataset(t *testing.T, startOffsetDays int, seed int64) *gen.Dataset {
	t.Helper()
	cfg := gen.Default()
	cfg.Machine = machine.Small()
	cfg.Days = 1
	cfg.Seed = seed
	cfg.Start = cfg.Start.AddDate(0, 0, startOffsetDays)
	cfg.Workload.JobsPerDay = 150
	cfg.Workload.XECapabilityJobsPerDay = 2
	cfg.Workload.XKCapabilityJobsPerDay = 1
	cfg.Workload.XECapabilitySizes = []int{256, 512}
	cfg.Workload.XKCapabilitySizes = []int{64, 160}
	cfg.Workload.FullScaleKneeXE = 512
	cfg.Workload.FullScaleKneeXK = 160
	cfg.Workload.SmallSizeMax = 96
	cfg.Rates.NodeFatalPerNodeHour *= 20
	cfg.Rates.NodeBenignPerNodeHour *= 20
	cfg.Rates.GPUFatalPerNodeHour *= 100
	ds, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// writeArchives appends the dataset's three archives to the conventional
// file names under dir.
func writeArchives(t *testing.T, dir string, ds *gen.Dataset) {
	t.Helper()
	appendTo := func(name string, write func(*strings.Builder) error) {
		var b strings.Builder
		if err := write(&b); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(b.String()); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	appendTo(AccountingFile, func(b *strings.Builder) error { return ds.WriteAccounting(b) })
	appendTo(ApsysFile, func(b *strings.Builder) error { return ds.WriteApsys(b) })
	appendTo(SyslogFile, func(b *strings.Builder) error { return ds.WriteErrorLog(b) })
}

func TestTailerAppendAndPartialLines(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, SyslogFile)
	tl := NewTailer(dir)

	// Absent files are empty, not errors.
	d, err := tl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Fatalf("poll of absent files returned data: %+v", d)
	}

	// A write ending mid-line: only the complete lines are released.
	if err := os.WriteFile(path, []byte("line one\nline two\npartial"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err = tl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(d.Syslog), "line one\nline two\n"; got != want {
		t.Errorf("first poll: %q, want %q", got, want)
	}

	// Nothing new: no data, and the partial line is still held back.
	d, err = tl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Errorf("idle poll returned %q", d.Syslog)
	}

	// Completing the line releases it joined with the held-back fragment.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(" done\nnext\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	d, err = tl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(d.Syslog), "partial done\nnext\n"; got != want {
		t.Errorf("after completion: %q, want %q", got, want)
	}

	// At the end of input, rest releases the held-back fragment as the last
	// line, once.
	if err := os.WriteFile(filepath.Join(dir, AccountingFile), []byte("whole\ntorn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if d, err = tl.Poll(); err != nil || string(d.Accounting) != "whole\n" {
		t.Fatalf("poll before rest: %q, %v", d.Accounting, err)
	}
	d = tl.rest()
	if string(d.Accounting) != "torn\n" || d.Apsys != nil || d.Syslog != nil {
		t.Errorf("rest: %+v, want only the accounting fragment, newline-terminated", d)
	}
	if d = tl.rest(); !d.Empty() {
		t.Errorf("second rest: %+v, want nothing", d)
	}
}

func TestTailerRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ApsysFile)
	tl := NewTailer(dir)

	if err := os.WriteFile(path, []byte("old one\nold two\nold partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := tl.Poll(); err != nil {
		t.Fatal(err)
	}

	// Rotation: the file is replaced by a shorter one. The old partial
	// line is gone with the old file; reading restarts from the top.
	if err := os.WriteFile(path, []byte("new one\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := tl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(d.Apsys), "new one\n"; got != want {
		t.Errorf("after rotation: %q, want %q", got, want)
	}
}

// TestTailerPollAllOrNothing: a Poll that fails on the last archive must
// not consume what it already read from the others — neither appended bytes
// (with their held-back fragment) nor a rotation it detected. The broken
// archive is a directory: it opens and stats fine but fails to read.
func TestTailerPollAllOrNothing(t *testing.T) {
	dir := t.TempDir()
	acc, aps, sys := filepath.Join(dir, AccountingFile), filepath.Join(dir, ApsysFile), filepath.Join(dir, SyslogFile)
	put := func(path, content string) { // rewrites in place: same inode
		t.Helper()
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	put(acc, "a1\npart")
	put(aps, "old one\nold two\n")
	put(sys, "s1 one\ns1 two\n")
	tl := NewTailer(dir)
	if _, err := tl.Poll(); err != nil {
		t.Fatal(err)
	}

	put(acc, "a1\npartial\na2\n") // grew: an append
	put(aps, "new\n")             // shrank: a rotation
	if err := os.Remove(sys); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(sys, 0o755); err != nil {
		t.Fatal(err)
	}
	if d, err := tl.Poll(); err == nil || !d.Empty() {
		t.Fatalf("poll over a directory archive: %+v, %v; want an error and no data", d, err)
	}

	if err := os.Remove(sys); err != nil {
		t.Fatal(err)
	}
	put(sys, "s2\n") // shorter than what was consumed: a rotation
	d, err := tl.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := [3]string{string(d.Accounting), string(d.Apsys), string(d.Syslog)},
		[3]string{"partial\na2\n", "new\n", "s2\n"}; got != want {
		t.Errorf("after heal: %q, want %q", got, want)
	}
	if d, err := tl.Poll(); err != nil || !d.Empty() {
		t.Errorf("second poll after heal: %+v, %v; want every byte exactly once", d, err)
	}
}

func TestStoreEpochsAndHeartbeat(t *testing.T) {
	st := New()
	if st.Current() != nil {
		t.Fatal("fresh store has a snapshot")
	}
	if st.Epoch() != 0 {
		t.Fatalf("fresh store epoch %d", st.Epoch())
	}
	if _, ok := st.LastSync(); ok {
		t.Fatal("fresh store has a sync heartbeat")
	}
	s1, s2 := &Snapshot{}, &Snapshot{}
	if e := st.Install(s1); e != 1 {
		t.Fatalf("first install epoch %d", e)
	}
	if e := st.Install(s2); e != 2 {
		t.Fatalf("second install epoch %d", e)
	}
	if cur := st.Current(); cur != s2 || cur.Epoch != 2 {
		t.Fatalf("current = %+v", cur)
	}
	at := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	st.MarkSync(at)
	got, ok := st.LastSync()
	if !ok || !got.Equal(at) {
		t.Fatalf("LastSync = %v, %v", got, ok)
	}
}

// TestSyncerLifecycle drives the full tail → append → snapshot loop over a
// real generated archive set, then appends more data and asserts the epoch
// advances and the new snapshot equals a from-scratch Analyze.
func TestSyncerLifecycle(t *testing.T) {
	dir := t.TempDir()
	st := New()
	clock := time.Date(2026, 8, 5, 0, 0, 0, 0, time.UTC)
	sy, err := NewSyncer(SyncerConfig{
		Tailer:   NewTailer(dir),
		Store:    st,
		Topology: smallDataset(t, 0, 21).Topology,
		Now: func() time.Time {
			clock = clock.Add(time.Second)
			return clock
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// First sync over an empty directory: installs the empty ready snapshot.
	installed, err := sy.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if !installed {
		t.Fatal("first sync did not install")
	}
	empty := st.Current()
	if empty.Epoch != 1 || empty.Outcomes.Total != 0 {
		t.Fatalf("empty snapshot: epoch %d, %d runs", empty.Epoch, empty.Outcomes.Total)
	}
	if _, ok := st.LastSync(); !ok {
		t.Fatal("no heartbeat after sync")
	}

	// Data arrives.
	ds1 := smallDataset(t, 0, 21)
	writeArchives(t, dir, ds1)
	if installed, err = sy.Sync(); err != nil || !installed {
		t.Fatalf("sync after data: %v, %v", installed, err)
	}
	s1 := st.Current()
	if s1.Epoch != 2 {
		t.Fatalf("epoch %d after first data", s1.Epoch)
	}
	if got, want := s1.Outcomes.Total, len(ds1.Runs); got != want {
		t.Fatalf("runs %d, want %d", got, want)
	}
	if s1.Ingest.Rounds != 1 || s1.Ingest.SyslogLines == 0 {
		t.Fatalf("ingest stats: %+v", s1.Ingest)
	}

	// A quiet poll installs nothing and leaves the snapshot alone, but the
	// heartbeat still advances.
	before, _ := st.LastSync()
	if installed, err = sy.Sync(); err != nil || installed {
		t.Fatalf("quiet sync: %v, %v", installed, err)
	}
	after, _ := st.LastSync()
	if st.Current() != s1 || !after.After(before) {
		t.Fatal("quiet sync disturbed snapshot or skipped heartbeat")
	}

	// The archive grows: a later day of activity lands.
	ds2 := smallDataset(t, 2, 22)
	writeArchives(t, dir, ds2)
	if installed, err = sy.Sync(); err != nil || !installed {
		t.Fatalf("sync after growth: %v, %v", installed, err)
	}
	s2 := st.Current()
	if s2.Epoch != 3 {
		t.Fatalf("epoch %d after growth", s2.Epoch)
	}
	if s2.Outcomes.Total <= s1.Outcomes.Total {
		t.Fatalf("run count did not grow: %d -> %d", s1.Outcomes.Total, s2.Outcomes.Total)
	}
	// (No windowed-win assertion here: the independently generated ds2
	// reuses ds1's batch job IDs, so every job is dirty and a full redo is
	// the correct answer. Round 3 below shows the windowed path.)

	// Windowed re-attribution: a syslog-only append two further days out
	// touches no jobs and completes no runs, so nothing settled needs redo.
	var sysOnly strings.Builder
	if err := smallDataset(t, 4, 23).WriteErrorLog(&sysOnly); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, SyslogFile), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(sysOnly.String()); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if installed, err = sy.Sync(); err != nil || !installed {
		t.Fatalf("sync after syslog growth: %v, %v", installed, err)
	}
	s3 := st.Current()
	if s3.Epoch != 4 {
		t.Fatalf("epoch %d after syslog growth", s3.Epoch)
	}
	if s3.Ingest.Reattributed >= s3.Outcomes.Total {
		t.Errorf("syslog-only round re-attributed %d of %d runs", s3.Ingest.Reattributed, s3.Outcomes.Total)
	}

	// The installed snapshot matches a from-scratch Analyze of the files.
	files := core.Archives{}
	acc, err := os.Open(filepath.Join(dir, AccountingFile))
	if err != nil {
		t.Fatal(err)
	}
	defer acc.Close()
	aps, err := os.Open(filepath.Join(dir, ApsysFile))
	if err != nil {
		t.Fatal(err)
	}
	defer aps.Close()
	sys, err := os.Open(filepath.Join(dir, SyslogFile))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	files.Accounting, files.Apsys, files.Syslog = acc, aps, sys
	want, err := core.Analyze(files, ds1.Topology, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s3.Outcomes.Total; got != len(want.Runs) {
		t.Fatalf("snapshot runs %d, from-scratch %d", got, len(want.Runs))
	}
	for i, r := range want.Runs {
		if s3.Result.Runs[i].Outcome != r.Outcome || s3.Result.Runs[i].ApID != r.ApID {
			t.Fatalf("run %d diverged from batch analyze", i)
		}
	}

	// Drill-down index covers every run.
	for _, r := range want.Runs {
		if _, ok := s3.Run(r.ApID); !ok {
			t.Fatalf("apid %d missing from run index", r.ApID)
		}
	}
	if _, ok := s3.Run(0xdeadbeef); ok {
		t.Fatal("bogus apid resolved")
	}
}

// TestSyncAllReadsToTheEnd: SyncAll reads archives larger than one poll and
// their unterminated last lines, and its one snapshot equals a from-scratch
// Analyze of the files.
func TestSyncAllReadsToTheEnd(t *testing.T) {
	dir := t.TempDir()
	// Blank lines ahead of the records push them past the first poll.
	if err := os.WriteFile(filepath.Join(dir, SyslogFile), bytes.Repeat([]byte("\n"), drainPollBytes), 0o644); err != nil {
		t.Fatal(err)
	}
	ds := smallDataset(t, 0, 21)
	writeArchives(t, dir, ds)
	files := core.Archives{}
	for _, a := range []struct {
		name string
		dst  *io.Reader
	}{{AccountingFile, &files.Accounting}, {ApsysFile, &files.Apsys}, {SyslogFile, &files.Syslog}} {
		path := filepath.Join(dir, a.name)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b = b[:len(b)-1] // tear the last line
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		*a.dst = bytes.NewReader(b)
	}
	want, err := core.Analyze(files, ds.Topology, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	st := New()
	sy, err := NewSyncer(SyncerConfig{Tailer: NewTailer(dir), Store: st, Topology: ds.Topology})
	if err != nil {
		t.Fatal(err)
	}
	if installed, err := sy.SyncAll(); err != nil || !installed {
		t.Fatalf("SyncAll: %v, %v", installed, err)
	}
	snap := st.Current()
	if !reflect.DeepEqual(snap.Result.Runs, want.Runs) || snap.Result.NumJobs != want.NumJobs || snap.Result.NumEvents != len(want.Events) {
		t.Errorf("SyncAll snapshot: %d runs, %d jobs, %d events; Analyze: %d, %d, %d",
			len(snap.Result.Runs), snap.Result.NumJobs, snap.Result.NumEvents, len(want.Runs), want.NumJobs, len(want.Events))
	}
	if snap.Ingest.Rounds != 1 || snap.Epoch != 1 {
		t.Errorf("SyncAll installed epoch %d after %d rounds, want one of each", snap.Epoch, snap.Ingest.Rounds)
	}
	// The pipeline is released: nothing can sync or persist it again.
	if _, err := sy.Sync(); err == nil {
		t.Error("Sync after SyncAll succeeded")
	}
	if _, err := sy.ExportState(); err == nil {
		t.Error("ExportState after SyncAll succeeded")
	}
}

// TestBuildDurationCoversBuild pins what Ingest.BuildDuration measures: the
// whole rebuild of a round, Build included. On a clock that steps once per
// reading, the measured interval — from the round's first reading — must end
// after the instant Build was entered (BuiltAt), the append and result
// stages must both be measured and nest inside it, and the state the syncer
// would persist must carry the same figures.
func TestBuildDurationCoversBuild(t *testing.T) {
	dir := t.TempDir()
	writeArchives(t, dir, smallDataset(t, 0, 21))
	st := New()
	clock := time.Date(2026, 8, 5, 0, 0, 0, 0, time.UTC)
	var began time.Time
	sy, err := NewSyncer(SyncerConfig{
		Tailer:   NewTailer(dir),
		Store:    st,
		Topology: smallDataset(t, 0, 21).Topology,
		Now: func() time.Time {
			clock = clock.Add(time.Second)
			if began.IsZero() {
				began = clock
			}
			return clock
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if installed, err := sy.Sync(); err != nil || !installed {
		t.Fatalf("sync: %v, %v", installed, err)
	}
	snap := st.Current()
	if end := began.Add(snap.Ingest.BuildDuration); !end.After(snap.BuiltAt) {
		t.Errorf("BuildDuration %s ends at %s, before Build started at %s: it omits the snapshot build",
			snap.Ingest.BuildDuration, end.Format("15:04:05"), snap.BuiltAt.Format("15:04:05"))
	}
	if a, r, b := snap.Ingest.AppendDuration, snap.Ingest.ResultDuration, snap.Ingest.BuildDuration; a <= 0 || r <= 0 || a+r >= b {
		t.Errorf("append %s + result %s do not nest strictly inside build %s", a, r, b)
	}
	if end := began.Add(snap.Ingest.AppendDuration + snap.Ingest.ResultDuration); end.After(snap.BuiltAt) {
		t.Errorf("append + result end at %s, after Build started at %s: they overlap the snapshot build",
			end.Format("15:04:05"), snap.BuiltAt.Format("15:04:05"))
	}
	sst, err := sy.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if sst.Ingest != snap.Ingest {
		t.Errorf("persisted ingest stats %+v differ from the served ones %+v", sst.Ingest, snap.Ingest)
	}
}

func TestBuildValidation(t *testing.T) {
	ds := smallDataset(t, 0, 21)
	if _, err := Build(nil, ds.Topology, IngestStats{}, time.Time{}); err == nil {
		t.Error("Build accepted nil result")
	}
	if _, err := Build(&core.Result{}, nil, IngestStats{}, time.Time{}); err == nil {
		t.Error("Build accepted nil topology")
	}
}

// TestIngestStatsReadsOlderStates: the shard state persists IngestStats by
// gob; a file written before MergeDuration existed must still decode, every
// older figure intact and MergeDuration zero.
func TestIngestStatsReadsOlderStates(t *testing.T) {
	type olderIngestStats struct { // IngestStats before MergeDuration
		Rounds                                   int
		AccountingLines, ApsysLines, SyslogLines int
		Reattributed                             int
		BuildDuration, AppendDuration            time.Duration
		ResultDuration                           time.Duration
	}
	old := olderIngestStats{1, 2, 3, 4, 5, 6 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	var got IngestStats
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	want := IngestStats{Rounds: 1, AccountingLines: 2, ApsysLines: 3, SyslogLines: 4, Reattributed: 5,
		BuildDuration: 6 * time.Millisecond, AppendDuration: 2 * time.Millisecond, ResultDuration: 3 * time.Millisecond}
	if got != want {
		t.Errorf("older ingest stats decode as %+v, want %+v", got, want)
	}
}
