package persist

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"logdiver/internal/core"
	"logdiver/internal/gen"
	"logdiver/internal/machine"
	"logdiver/internal/store"
)

// smallDataset generates a small synthetic archive set, optionally offset
// in time and reseeded, matching the store package's serving fixtures.
func smallDataset(t testing.TB, startOffsetDays int, seed int64) *gen.Dataset {
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
func writeArchives(t testing.TB, dir string, ds *gen.Dataset) {
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
	appendTo(store.AccountingFile, func(b *strings.Builder) error { return ds.WriteAccounting(b) })
	appendTo(store.ApsysFile, func(b *strings.Builder) error { return ds.WriteApsys(b) })
	appendTo(store.SyslogFile, func(b *strings.Builder) error { return ds.WriteErrorLog(b) })
}

// testFingerprint is the configuration identity shared by the fixtures.
func testFingerprint(ds *gen.Dataset) Fingerprint {
	return Fingerprint{
		Machine:   "small",
		Nodes:     ds.Topology.NumNodes(),
		ParseMode: "lenient",
		Rules:     RulesBuiltin,
		TimeZone:  "UTC",
	}
}

// firstLife runs one daemon "life": sync the archives under dir at the
// given parallelism and persist the resulting state to statePath.
func firstLife(t testing.TB, dir, statePath string, ds *gen.Dataset, par int) {
	t.Helper()
	st := store.New()
	sy, err := store.NewSyncer(store.SyncerConfig{
		Tailer:   store.NewTailer(dir),
		Store:    st,
		Topology: ds.Topology,
		Location: time.UTC,
		Options:  core.Options{Parallelism: par},
	})
	if err != nil {
		t.Fatal(err)
	}
	if installed, err := sy.Sync(); err != nil || !installed {
		t.Fatalf("first-life sync: %v, %v", installed, err)
	}
	sst, err := sy.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	err = Save(statePath, &State{
		SavedAt:     time.Now(),
		Epoch:       st.Epoch(),
		Fingerprint: testFingerprint(ds),
		Syncer:      sst,
	})
	if err != nil {
		t.Fatal(err)
	}
}

// analyzeFiles runs the batch pipeline over the archives on disk.
func analyzeFiles(t testing.TB, dir string, ds *gen.Dataset, par int) *core.Result {
	t.Helper()
	open := func(name string) *os.File {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	acc, aps, sys := open(store.AccountingFile), open(store.ApsysFile), open(store.SyslogFile)
	defer acc.Close()
	defer aps.Close()
	defer sys.Close()
	res, err := core.Analyze(core.Archives{
		Accounting: acc, Apsys: aps, Syslog: sys, Location: time.UTC,
	}, ds.Topology, core.Options{Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// restoredResult is the restore oracle at the layer that owns the data: it
// rebuilds the pipeline from the gob-round-tripped state with no Syncer and
// no snapshot in between, appends what the restored tailer reads, and
// returns the full Result — jobs, events, tuples and groups included. It
// loads its own copy of the state so the Syncer's restore shares nothing
// with it.
func restoredResult(t testing.TB, dir, statePath string, ds *gen.Dataset, par int) *core.Result {
	t.Helper()
	loaded, err := Load(statePath)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := core.RestoreIncremental(ds.Topology, time.UTC, core.Options{Parallelism: par}, loaded.Syncer.Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	tail := store.NewTailer(dir)
	if err := tail.RestoreState(loaded.Syncer.Tailer); err != nil {
		t.Fatal(err)
	}
	d, err := tail.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Append(d); err != nil {
		t.Fatal(err)
	}
	res, err := inc.Result()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkSnapshot requires snap to hold everything a snapshot retains of
// want — runs, both counts, hygiene, span — and the
// five aggregates a from-scratch Build derives from it.
func checkSnapshot(t testing.TB, snap *store.Snapshot, want *core.Result, ds *gen.Dataset) {
	t.Helper()
	if snap.Result.Parse != want.Parse {
		t.Fatalf("ParseStats diverged:\n got %+v\nwant %+v", snap.Result.Parse, want.Parse)
	}
	retained := store.Retained{
		Runs:      want.Runs,
		NumJobs:   len(want.Jobs),
		NumEvents: len(want.Events),
		Parse:     want.Parse,
		Start:     want.Start,
		End:       want.End,
	}
	if !reflect.DeepEqual(snap.Result, retained) {
		t.Fatalf("warm-restart snapshot diverged from from-scratch Analyze (%d vs %d runs, %d vs %d jobs, %d vs %d events)",
			len(snap.Result.Runs), len(want.Runs), snap.Result.NumJobs, len(want.Jobs), snap.Result.NumEvents, len(want.Events))
	}
	ref, err := store.Build(want, ds.Topology, store.IngestStats{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []struct {
		name      string
		got, want any
	}{
		{"outcomes", snap.Outcomes, ref.Outcomes},
		{"categories", snap.Categories, ref.Categories},
		{"scaling_xe", snap.ScalingXE, ref.ScalingXE},
		{"scaling_xk", snap.ScalingXK, ref.ScalingXK},
		{"mtti", snap.MTTI, ref.MTTI},
	} {
		if !reflect.DeepEqual(v.got, v.want) {
			t.Errorf("warm-restart %s diverged from a from-scratch Build", v.name)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir, stateDir := t.TempDir(), t.TempDir()
	statePath := filepath.Join(stateDir, StateFile)
	ds := smallDataset(t, 0, 21)
	writeArchives(t, dir, ds)
	firstLife(t, dir, statePath, ds, 0)

	loaded, err := Load(statePath)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Epoch != 1 {
		t.Errorf("epoch %d, want 1", loaded.Epoch)
	}
	if diff := loaded.Fingerprint.Diff(testFingerprint(ds)); diff != "" {
		t.Errorf("fingerprint diverged after round trip: %s", diff)
	}
	if loaded.Syncer.Ingest.Rounds != 1 || loaded.Syncer.Ingest.SyslogLines == 0 {
		t.Errorf("ingest stats lost: %+v", loaded.Syncer.Ingest)
	}
	if got := len(loaded.Syncer.Pipeline.Attr); got != len(ds.Runs) {
		t.Errorf("attribution carry has %d runs, want %d", got, len(ds.Runs))
	}
	for i, f := range loaded.Syncer.Tailer.Files {
		if f.Offset <= 0 {
			t.Errorf("archive %d: offset %d after ingesting data", i, f.Offset)
		}
	}
	// Saving over an existing file replaces it atomically.
	loaded.Epoch = 7
	if err := Save(statePath, loaded); err != nil {
		t.Fatal(err)
	}
	again, err := Load(statePath)
	if err != nil {
		t.Fatal(err)
	}
	if again.Epoch != 7 {
		t.Errorf("epoch %d after re-save, want 7", again.Epoch)
	}
}

// TestDifferentialWarmRestart is the tentpole acceptance: persist after day
// one, let the archive grow while "down", warm-restart, sync once — the
// snapshot must hold what a from-scratch Analyze over the full archives
// yields, the pipeline restored directly from the state file must reproduce
// that Result field for field, and the epoch must continue the persisted
// sequence. The
// cross-parallelism cases pin that a state built at one worker count is
// sound to restore under another (the fingerprint deliberately ignores it).
func TestDifferentialWarmRestart(t *testing.T) {
	cases := []struct{ firstPar, secondPar int }{
		{1, 1},
		{4, 4},
		{1, 4},
		{4, 1},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("parallelism=%d to %d", tc.firstPar, tc.secondPar), func(t *testing.T) {
			dir, stateDir := t.TempDir(), t.TempDir()
			statePath := filepath.Join(stateDir, StateFile)
			ds := smallDataset(t, 0, 21)
			writeArchives(t, dir, ds)
			firstLife(t, dir, statePath, ds, tc.firstPar)

			// The archive grows while the daemon is down.
			writeArchives(t, dir, smallDataset(t, 2, 22))

			loaded, err := Load(statePath)
			if err != nil {
				t.Fatal(err)
			}
			if diff := loaded.Fingerprint.Diff(testFingerprint(ds)); diff != "" {
				t.Fatalf("fingerprint mismatch on restore: %s", diff)
			}
			st := store.New()
			if err := st.Restore(loaded.Epoch); err != nil {
				t.Fatal(err)
			}
			sy, err := store.NewSyncer(store.SyncerConfig{
				Tailer:   store.NewTailer(dir),
				Store:    st,
				Topology: ds.Topology,
				Location: time.UTC,
				Options:  core.Options{Parallelism: tc.secondPar},
				Resume:   loaded.Syncer,
			})
			if err != nil {
				t.Fatal(err)
			}
			if installed, err := sy.Sync(); err != nil || !installed {
				t.Fatalf("warm sync: %v, %v", installed, err)
			}
			snap := st.Current()
			if snap.Epoch != loaded.Epoch+1 {
				t.Errorf("epoch %d after warm restart, want %d", snap.Epoch, loaded.Epoch+1)
			}
			if snap.Ingest.Rounds != 2 {
				t.Errorf("ingest rounds %d across lives, want 2", snap.Ingest.Rounds)
			}

			want := analyzeFiles(t, dir, ds, tc.secondPar)
			checkSnapshot(t, snap, want, ds)
			if got := restoredResult(t, dir, statePath, ds, tc.secondPar); !reflect.DeepEqual(got, want) {
				t.Fatalf("restored pipeline Result diverged from from-scratch Analyze (%d vs %d runs, %d vs %d jobs, %d vs %d events, %d vs %d raw events)",
					len(got.Runs), len(want.Runs), len(got.Jobs), len(want.Jobs), len(got.Events), len(want.Events),
					got.RawEvents, want.RawEvents)
			}
		})
	}
}

// TestWarmRestartNoGrowth restores against unchanged archives: the first
// warm sync must install a snapshot (the API becomes ready) that equals the
// from-scratch analysis without re-reading any archive bytes.
func TestWarmRestartNoGrowth(t *testing.T) {
	dir, stateDir := t.TempDir(), t.TempDir()
	statePath := filepath.Join(stateDir, StateFile)
	ds := smallDataset(t, 0, 21)
	writeArchives(t, dir, ds)
	firstLife(t, dir, statePath, ds, 0)

	loaded, err := Load(statePath)
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	if err := st.Restore(loaded.Epoch); err != nil {
		t.Fatal(err)
	}
	sy, err := store.NewSyncer(store.SyncerConfig{
		Tailer:   store.NewTailer(dir),
		Store:    st,
		Topology: ds.Topology,
		Location: time.UTC,
		Resume:   loaded.Syncer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if installed, err := sy.Sync(); err != nil || !installed {
		t.Fatalf("warm sync: %v, %v", installed, err)
	}
	snap := st.Current()
	if snap.Epoch != 2 {
		t.Errorf("epoch %d, want 2", snap.Epoch)
	}
	// No new bytes were ingested, so the warm sync re-attributed nothing.
	if snap.Ingest.Reattributed != 0 {
		t.Errorf("warm sync over unchanged archives re-attributed %d runs", snap.Ingest.Reattributed)
	}
	want := analyzeFiles(t, dir, ds, 0)
	checkSnapshot(t, snap, want, ds)
	if got := restoredResult(t, dir, statePath, ds, 0); !reflect.DeepEqual(got, want) {
		t.Fatal("restored pipeline Result diverged from from-scratch Analyze")
	}
}

// TestCrashInjection corrupts a valid state file every way a crash or a bad
// disk can: every corruption must surface as a typed load error — never a
// panic, never a silently wrong state.
func TestCrashInjection(t *testing.T) {
	dir, stateDir := t.TempDir(), t.TempDir()
	statePath := filepath.Join(stateDir, StateFile)
	ds := smallDataset(t, 0, 21)
	writeArchives(t, dir, ds)
	firstLife(t, dir, statePath, ds, 0)
	valid, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}

	loadMutant := func(t *testing.T, b []byte) error {
		t.Helper()
		p := filepath.Join(t.TempDir(), StateFile)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(p)
		if err == nil {
			t.Fatal("Load accepted a corrupted state file")
		}
		return err
	}
	wantFormat := func(t *testing.T, err error) {
		t.Helper()
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("error %v (%T), want *FormatError", err, err)
		}
		if !strings.Contains(fe.Error(), StateFile) {
			t.Errorf("error does not name the file: %v", fe)
		}
	}

	t.Run("missing", func(t *testing.T) {
		_, err := Load(filepath.Join(t.TempDir(), StateFile))
		if !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("error %v, want fs.ErrNotExist", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		wantFormat(t, loadMutant(t, nil))
	})
	t.Run("truncated", func(t *testing.T) {
		// A torn write can stop anywhere; sweep truncation points across
		// the header and the payload.
		points := []int{1, len(magic), headerSize - 1, headerSize, headerSize + 1,
			headerSize + (len(valid)-headerSize)/2, len(valid) - 1}
		for _, n := range points {
			wantFormat(t, loadMutant(t, valid[:n]))
		}
	})
	t.Run("bit-rot", func(t *testing.T) {
		// Flip one byte at a spread of offsets, header and payload alike.
		for off := 0; off < len(valid); off += len(valid)/17 + 1 {
			mut := append([]byte(nil), valid...)
			mut[off] ^= 0x40
			if _, err := Load(func() string {
				p := filepath.Join(t.TempDir(), StateFile)
				if err := os.WriteFile(p, mut, 0o644); err != nil {
					t.Fatal(err)
				}
				return p
			}()); err == nil {
				t.Fatalf("Load accepted a byte flip at offset %d", off)
			}
		}
	})
	t.Run("version-skew", func(t *testing.T) {
		mut := append([]byte(nil), valid...)
		mut[len(magic)+3]++ // low byte of the big-endian version field
		err := loadMutant(t, mut)
		var ve *VersionError
		if !errors.As(err, &ve) {
			t.Fatalf("error %v (%T), want *VersionError", err, err)
		}
		if ve.Got != Version+1 || ve.Want != Version {
			t.Errorf("VersionError got=%d want=%d", ve.Got, ve.Want)
		}
	})
	t.Run("trailing-garbage", func(t *testing.T) {
		wantFormat(t, loadMutant(t, append(append([]byte(nil), valid...), "tail"...)))
	})
	t.Run("kill-mid-write", func(t *testing.T) {
		// A crash between temp-file creation and rename leaves a stray temp
		// alongside an intact old state: the old state must still load.
		stray := filepath.Join(stateDir, ".ldv-state-stray")
		if err := os.WriteFile(stray, valid[:len(valid)/3], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Load(statePath)
		if err != nil {
			t.Fatalf("intact state failed to load next to a torn temp: %v", err)
		}
		if st.Epoch != 1 {
			t.Errorf("epoch %d, want 1", st.Epoch)
		}
	})
}

func TestFingerprint(t *testing.T) {
	base := Fingerprint{Machine: "bluewaters", Nodes: 26864, ParseMode: "lenient", Rules: RulesBuiltin, TimeZone: "UTC"}
	if d := base.Diff(base); d != "" {
		t.Errorf("equal fingerprints diff: %q", d)
	}
	cases := []struct {
		mutate func(*Fingerprint)
		word   string
	}{
		{func(f *Fingerprint) { f.Machine = "small" }, "machine"},
		{func(f *Fingerprint) { f.Nodes = 64 }, "topology"},
		{func(f *Fingerprint) { f.ParseMode = "strict" }, "parse mode"},
		{func(f *Fingerprint) { f.Rules = HashRules([]byte("rule")) }, "rules"},
		{func(f *Fingerprint) { f.TimeZone = "America/Chicago" }, "timezone"},
	}
	for _, tc := range cases {
		cur := base
		tc.mutate(&cur)
		d := base.Diff(cur)
		if d == "" || !strings.Contains(d, tc.word) {
			t.Errorf("diff %q does not name %q", d, tc.word)
		}
	}
	h := HashRules([]byte("x"))
	if !strings.HasPrefix(h, "sha256:") || h == HashRules([]byte("y")) {
		t.Errorf("HashRules misbehaves: %q", h)
	}
}

func TestSaveValidation(t *testing.T) {
	if err := Save(filepath.Join(t.TempDir(), StateFile), nil); err == nil {
		t.Error("Save accepted a nil state")
	}
	// Saving into a missing directory fails cleanly rather than creating it:
	// the state dir is operator-owned.
	err := Save(filepath.Join(t.TempDir(), "no-such-dir", StateFile), &State{Syncer: &store.SyncerState{Pipeline: &core.IncrementalState{}}})
	if err == nil {
		t.Error("Save into a missing directory succeeded")
	}
}
