package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"logdiver/internal/alps"
	"logdiver/internal/core"
	"logdiver/internal/correlate"
	"logdiver/internal/errlog"
	"logdiver/internal/gen"
	"logdiver/internal/machine"
	"logdiver/internal/raceflag"
	"logdiver/internal/store"
	"logdiver/internal/wlm"
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
		Accounting: acc, Apsys: aps, Syslog: sys,
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
		NumJobs:   want.NumJobs,
		NumEvents: len(want.Events),
		Parse:     want.Parse,
		Start:     want.Start,
		End:       want.End,
	}
	if !reflect.DeepEqual(snap.Result, retained) {
		t.Fatalf("warm-restart snapshot diverged from from-scratch Analyze (%d vs %d runs, %d vs %d jobs, %d vs %d events)",
			len(snap.Result.Runs), len(want.Runs), snap.Result.NumJobs, want.NumJobs, snap.Result.NumEvents, len(want.Events))
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
					len(got.Runs), len(want.Runs), got.NumJobs, want.NumJobs, len(got.Events), len(want.Events),
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

// validStateFile writes the first-life state file of the small dataset and
// returns its bytes and the file offset at which each of its records begins.
func validStateFile(t testing.TB, statePath string) (valid []byte, boundaries []int) {
	t.Helper()
	dir := t.TempDir()
	ds := smallDataset(t, 0, 21)
	writeArchives(t, dir, ds)
	firstLife(t, dir, statePath, ds, 0)
	valid, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	return valid, recordBoundaries(t, valid)
}

// recordBoundaries re-encodes the state a valid file holds, which must
// reproduce the file's payload byte for byte, and returns the file offsets
// at which its records begin.
func recordBoundaries(t testing.TB, valid []byte) []int {
	t.Helper()
	p := filepath.Join(t.TempDir(), StateFile)
	if err := os.WriteFile(p, valid, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Load(p)
	if err != nil {
		t.Fatal(err)
	}
	rec := &boundaryWriter{}
	if _, err := writePayload(rec, st); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.buf.Bytes(), valid[headerSize:]) {
		t.Fatal("re-encoding a loaded state does not reproduce its payload")
	}
	return rec.starts
}

// boundaryWriter keeps a payload and the file offset of each of its
// records: the encoder writes every record with one Write.
type boundaryWriter struct {
	buf    bytes.Buffer
	starts []int
}

func (w *boundaryWriter) Write(p []byte) (int, error) {
	w.starts = append(w.starts, headerSize+w.buf.Len())
	return w.buf.Write(p)
}

// reseal rewrites a file's length and checksum to describe whatever payload
// follows its header, as a Save of those records would have.
func reseal(b []byte) []byte {
	out := bytes.Clone(b)
	h := sha256.New()
	h.Write(out[headerSize:])
	copy(out, sealHeader(uint64(len(out)-headerSize), h))
	return out
}

// crashMutant is one way a crash or a bad disk can leave a state file.
type crashMutant struct {
	name string
	data []byte
}

// crashMutants derives from a valid file every corruption TestCrashInjection
// checks, version skew aside.
func crashMutants(valid []byte, boundaries []int) []crashMutant {
	var out []crashMutant
	add := func(name string, b []byte) { out = append(out, crashMutant{name, b}) }
	add("empty", nil)
	// A torn write can stop anywhere; sweep truncation points across the
	// header and the payload.
	for _, n := range []int{1, len(magic), headerSize - 1, headerSize, headerSize + 1,
		headerSize + (len(valid)-headerSize)/2, len(valid) - 1} {
		add(fmt.Sprintf("truncated at %d", n), valid[:n])
	}
	// Flip one byte at a spread of offsets, header and payload alike.
	for off := 0; off < len(valid); off += len(valid)/17 + 1 {
		mut := bytes.Clone(valid)
		mut[off] ^= 0x40
		add(fmt.Sprintf("bit flip at %d", off), mut)
	}
	add("trailing garbage", append(bytes.Clone(valid), "tail"...))
	// Torn at every record boundary and one byte either side: as written,
	// the header disagrees with the length; resealed, the header agrees and
	// the records themselves come up short.
	for _, b := range boundaries {
		for _, n := range []int{b - 1, b, b + 1} {
			if n <= headerSize || n >= len(valid) {
				continue
			}
			add(fmt.Sprintf("torn at %d", n), valid[:n])
			add(fmt.Sprintf("torn and resealed at %d", n), reseal(valid[:n]))
		}
	}
	// Killed between two chunks: the temp file holds the placeholder header
	// and the records written so far.
	for _, b := range boundaries[1:] {
		add(fmt.Sprintf("killed before the record at %d", b), append(make([]byte, headerSize), valid[headerSize:b]...))
	}
	return out
}

// TestCrashInjection corrupts a valid state file every way a crash or a bad
// disk can: every corruption must surface as a typed load error — never a
// panic, never a silently wrong state.
func TestCrashInjection(t *testing.T) {
	stateDir := t.TempDir()
	statePath := filepath.Join(stateDir, StateFile)
	valid, boundaries := validStateFile(t, statePath)
	// The dataset's slices each fit one record; a synthetic state whose
	// slices span two records each also tears between chunks of one slice.
	multi := filepath.Join(t.TempDir(), StateFile)
	if err := Save(multi, syntheticState(chunkRecords+1)); err != nil {
		t.Fatal(err)
	}
	validMulti, err := os.ReadFile(multi)
	if err != nil {
		t.Fatal(err)
	}
	multiBoundaries := recordBoundaries(t, validMulti)
	if len(boundaries) < 5 || len(multiBoundaries) < 10 {
		t.Fatalf("fixtures: %d and %d records, too few to tear between", len(boundaries), len(multiBoundaries))
	}
	mutants := append(crashMutants(valid, boundaries), crashMutants(validMulti, multiBoundaries)...)

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
	run := func(name, prefix string) {
		t.Run(name, func(t *testing.T) {
			n := 0
			for _, m := range mutants {
				if strings.HasPrefix(m.name, prefix) {
					n++
					t.Logf("%s", m.name)
					wantFormat(t, loadMutant(t, m.data))
				}
			}
			if n == 0 {
				t.Fatalf("no %q mutant", prefix)
			}
		})
	}

	t.Run("missing", func(t *testing.T) {
		_, err := Load(filepath.Join(t.TempDir(), StateFile))
		if !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("error %v, want fs.ErrNotExist", err)
		}
	})
	run("empty", "empty")
	run("truncated", "truncated")
	run("bit-rot", "bit flip")
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
	run("trailing-garbage", "trailing")
	run("torn-at-record-boundaries", "torn")
	t.Run("kill-mid-write", func(t *testing.T) {
		// A crash between temp-file creation and rename leaves a stray temp
		// alongside an intact old state: the old state must still load, and
		// the temp, killed between any two of its records, must not.
		for _, m := range mutants {
			if !strings.HasPrefix(m.name, "killed") && m.name != "truncated at "+fmt.Sprint(headerSize+(len(valid)-headerSize)/2) {
				continue
			}
			stray := filepath.Join(stateDir, ".ldv-state-stray")
			if err := os.WriteFile(stray, m.data, 0o644); err != nil {
				t.Fatal(err)
			}
			var fe *FormatError
			if _, err := Load(stray); !errors.As(err, &fe) || !strings.Contains(err.Error(), stray) {
				t.Fatalf("temp %s loads with %v (%T), want a *FormatError naming it", m.name, err, err)
			}
			st, err := Load(statePath)
			if err != nil {
				t.Fatalf("intact state failed to load next to a temp %s: %v", m.name, err)
			}
			if st.Epoch != 1 {
				t.Errorf("epoch %d, want 1", st.Epoch)
			}
		}
	})
}

// TestVersion2IsAVersionError: a file as version 2 wrote it — the header,
// then the whole State as one gob value — is refused at its header.
func TestVersion2IsAVersionError(t *testing.T) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(syntheticState(10)); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(payload.Bytes())
	b := append([]byte(magic), 0, 0, 0, 2)
	b = binary.BigEndian.AppendUint64(b, uint64(payload.Len()))
	b = append(append(b, sum[:]...), payload.Bytes()...)
	p := filepath.Join(t.TempDir(), StateFile)
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(p)
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Got != 2 || ve.Want != Version {
		t.Fatalf("a version-2 file loads with %v (%T), want a VersionError from 2 to %d", err, err, Version)
	}
	if msg := err.Error(); !strings.Contains(msg, "version 2") || !strings.Contains(msg, fmt.Sprintf("version %d", Version)) {
		t.Errorf("error %q does not name both versions", msg)
	}
}

// TestRecordMustFillItsCount: a record whose frame counts more elements
// than its gob stream holds is refused, even in a file whose checksum is
// sound, instead of leaving zero-valued runs in the restored slice.
func TestRecordMustFillItsCount(t *testing.T) {
	records := func(st *State) [][]byte {
		w := &boundaryWriter{}
		if _, err := writePayload(w, st); err != nil {
			t.Fatal(err)
		}
		b := w.buf.Bytes()
		var out [][]byte
		for i, start := range w.starts {
			end := len(b)
			if i+1 < len(w.starts) {
				end = w.starts[i+1] - headerSize
			}
			out = append(out, b[start-headerSize:end])
		}
		return out
	}
	full := syntheticState(10)
	short := syntheticState(10)
	short.Syncer.Pipeline.Alps.Done = short.Syncer.Pipeline.Alps.Done[:9]
	recs, shortRecs := records(full), records(short)
	const done = 4 // types, header, jobs, open runs, completed runs
	body := shortRecs[done]
	n, a := binary.Uvarint(body)
	_, b := binary.Uvarint(body[a:])
	if n != 9 {
		t.Fatalf("fixture: record %d holds %d elements, want the 9 completed runs", done, n)
	}
	body = body[a+b:]
	liar := binary.AppendUvarint(binary.AppendUvarint(nil, 10), uint64(len(body)))
	recs[done] = append(liar, body...)
	file := make([]byte, headerSize)
	for _, r := range recs {
		file = append(file, r...)
	}
	p := filepath.Join(t.TempDir(), StateFile)
	if err := os.WriteFile(p, reseal(file), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(p)
	var fe *FormatError
	if !errors.As(err, &fe) || !strings.Contains(err.Error(), "completed runs") {
		t.Fatalf("a record one element short of its count loads with %v, want a FormatError naming the completed runs", err)
	}
}

// syntheticState returns a well-formed state whose pipeline holds n
// completed runs, each attributed, n events in the carry, n/4 jobs, and a
// few open runs and pending events. Its values are arbitrary but distinct:
// nothing restores it, Save and Load only move it.
func syntheticState(n int) *State {
	t0 := time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
	run := func(i int) alps.AppRun {
		return alps.AppRun{
			ApID: uint64(i + 1), JobID: fmt.Sprintf("%d.bw", i/4), User: "user" + fmt.Sprint(i%97),
			Cmd: "app" + fmt.Sprint(i%13), Width: 32,
			Placement: machine.Placement{{Lo: machine.NodeID(i % 500), Hi: machine.NodeID(i%500 + 7)}},
			Start:     t0.Add(time.Duration(i) * time.Minute), End: t0.Add(time.Duration(i+30) * time.Minute),
		}
	}
	event := func(i int) errlog.Event {
		return errlog.Event{Time: t0.Add(time.Duration(i) * time.Second), Node: machine.NodeID(i % 500),
			Cname: fmt.Sprintf("c%d-0c0s%dn%d", i%12, i%8, i%4), Message: "machine check exception " + fmt.Sprint(i%31)}
	}
	p := &core.IncrementalState{LineBase: [3]int{n, n, n}}
	for i := 0; i < n/4; i++ {
		p.Jobs = append(p.Jobs, wlm.Job{ID: fmt.Sprintf("%d.bw", i), Walltime: time.Duration(i) * time.Minute, UsedWalltime: time.Minute})
	}
	for i := 0; i < n; i++ {
		p.Alps.Done = append(p.Alps.Done, run(i))
		a := correlate.Attribution{Class: machine.ClassXE, Outcome: correlate.OutcomeSuccess, Nodes: 8}
		if i%50 == 0 {
			a.Outcome, a.Evidence, a.HasEvidence = correlate.OutcomeSystemFailure, event(i), true
		}
		p.Attr = append(p.Attr, a)
		p.Events = append(p.Events, event(i))
	}
	for i := 0; i < 5; i++ {
		p.Alps.Open = append(p.Alps.Open, run(n+i))
		p.Pending = append(p.Pending, event(n+i))
	}
	return &State{
		SavedAt: t0, Epoch: 3, FleetEpoch: 4,
		Fingerprint: Fingerprint{Machine: "small", Nodes: 512, ParseMode: "lenient", Rules: RulesBuiltin},
		Syncer: &store.SyncerState{Pipeline: p, Tailer: store.TailerState{Files: [3]store.TailFileState{
			{Offset: 100, Carry: []byte("part")}, {Offset: 200}, {Offset: 300},
		}}},
	}
}

// TestSyntheticRoundTrip: every field and every bulk slice of a state whose
// slices span several chunks survives Save and Load.
func TestSyntheticRoundTrip(t *testing.T) {
	st := syntheticState(3*chunkRecords + 5)
	p := filepath.Join(t.TempDir(), StateFile)
	if err := Save(p, st); err != nil {
		t.Fatal(err)
	}
	got, err := Load(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatal("a synthetic state changed across Save and Load")
	}
}

// heapProbe is the file end of a Save's stream: before every eighth record,
// the first included, it collects garbage and notes the live heap, and it
// keeps the largest record.
type heapProbe struct {
	records   int
	peak      uint64
	maxRecord int
}

func (w *heapProbe) Write(p []byte) (int, error) {
	w.maxRecord = max(w.maxRecord, len(p))
	if w.records%8 == 0 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		w.peak = max(w.peak, m.HeapAlloc)
	}
	w.records++
	return len(p), nil
}

// TestSaveMemoryBounded is the bounded-save gate: the live heap a Save adds
// on top of the state it saves is one chunk record and the encoder's fixed
// costs, whatever the state's size, so between about 10k and 100k runs it
// grows by less than one chunk. A Save that buffered the payload, or
// copied a bulk slice, would grow by tens of megabytes.
func TestSaveMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("collects garbage before every record of a 100k-run state")
	}
	if raceflag.Enabled {
		t.Skip("heap volume is not meaningful under the race detector")
	}
	added := func(n int) (extra uint64, maxRecord int) {
		st := syntheticState(n)
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		probe := &heapProbe{}
		if _, err := writePayload(probe, st); err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(st)
		return probe.peak - min(probe.peak, m.HeapAlloc), probe.maxRecord
	}
	small, rec1 := added(10_000)
	large, rec2 := added(100_000)
	chunk := uint64(max(rec1, rec2))
	t.Logf("Save adds %d B at 10k runs, %d B at 100k runs; largest record %d B", small, large, chunk)
	if large > small+chunk {
		t.Errorf("Save adds %d B over a 100k-run state and %d B over a 10k-run one: more than one chunk (%d B) apart", large, small, chunk)
	}
}

// FuzzLoad: on any bytes Load returns a state or one of its typed errors,
// never panics, and returns a state only when the header's length and
// checksum match the payload. With reseal set the harness rewrites the
// header to match whatever payload follows it, so the record decoder and
// its checks see arbitrary records. The seeds are a small valid file and
// every TestCrashInjection mutant of it: small inputs keep the fuzzer fast.
func FuzzLoad(f *testing.F) {
	path := filepath.Join(f.TempDir(), StateFile)
	if err := Save(path, syntheticState(20)); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, false)
	f.Add(valid, true)
	for _, m := range crashMutants(valid, recordBoundaries(f, valid)) {
		f.Add(m.data, false)
	}
	mut := bytes.Clone(valid)
	mut[len(magic)+3]++
	f.Add(mut, false)

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte, resealed bool) {
		if resealed && len(data) >= headerSize {
			data = reseal(data)
		}
		p := filepath.Join(dir, fmt.Sprintf("fuzz-%d.ldv", time.Now().UnixNano()))
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		defer os.Remove(p)
		st, err := Load(p)
		if err != nil {
			var fe *FormatError
			var ve *VersionError
			if !errors.As(err, &fe) && !errors.As(err, &ve) {
				t.Fatalf("untyped error %v (%T)", err, err)
			}
			return
		}
		if st == nil || st.Syncer == nil || st.Syncer.Pipeline == nil {
			t.Fatal("Load returned no error and no state")
		}
		sum := sha256.Sum256(data[headerSize:])
		if binary.BigEndian.Uint32(data[len(magic):]) != Version ||
			binary.BigEndian.Uint64(data[len(magic)+4:]) != uint64(len(data)-headerSize) ||
			!bytes.Equal(sum[:], data[headerSize-sha256.Size:headerSize]) {
			t.Fatal("Load returned a state from a file whose header does not describe its payload")
		}
	})
}

func TestFingerprint(t *testing.T) {
	base := Fingerprint{Machine: "bluewaters", Nodes: 26864, ParseMode: "lenient", Rules: RulesBuiltin}
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
