package persist

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"logdiver/internal/core"
	"logdiver/internal/gen"
	"logdiver/internal/store"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/state-v3.ldv with this tree's writer")

// goldenState is a version-3 state file committed as bytes: a daemon's
// state after it synced the first half of every archive of goldenDataset.
// The committed file was written before a job record shrank to an ID and
// two walltimes, so its job records carry eleven fields; reading it pins
// that the shrink needed no version bump. A format change must rewrite it
// on purpose (go test ./internal/persist -run TestGoldenState -update) and
// say so.
var goldenState = filepath.Join("testdata", "state-v3.ldv")

// goldenDataset is the generated archive set behind the golden state.
func goldenDataset(t testing.TB) *gen.Dataset {
	t.Helper()
	cfg := gen.Small(1)
	cfg.Seed = 3
	cfg.Workload.JobsPerDay = 100
	ds, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// goldenArchives renders the dataset's three archives and the first half of
// each, cut on a line boundary.
func goldenArchives(t testing.TB, ds *gen.Dataset) (full, half [3]string) {
	t.Helper()
	var b [3]strings.Builder
	for i, write := range []func(*strings.Builder) error{
		func(w *strings.Builder) error { return ds.WriteAccounting(w) },
		func(w *strings.Builder) error { return ds.WriteApsys(w) },
		func(w *strings.Builder) error { return ds.WriteErrorLog(w) },
	} {
		if err := write(&b[i]); err != nil {
			t.Fatal(err)
		}
		full[i] = b[i].String()
		lines := strings.SplitAfter(full[i], "\n")
		half[i] = strings.Join(lines[:len(lines)/2], "")
	}
	return full, half
}

// writeArchiveFiles writes three archive texts under dir.
func writeArchiveFiles(t testing.TB, dir string, text [3]string) {
	t.Helper()
	for i, name := range []string{store.AccountingFile, store.ApsysFile, store.SyslogFile} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text[i]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGoldenStateRestores loads the committed state file, resumes a daemon's
// syncer from it over the full archives and restores the pipeline from it
// directly: both must reach what a from-scratch Analyze over all of the
// archives gives.
func TestGoldenStateRestores(t *testing.T) {
	ds := goldenDataset(t)
	full, half := goldenArchives(t, ds)
	if *updateGolden {
		dir := t.TempDir()
		writeArchiveFiles(t, dir, half)
		firstLife(t, dir, goldenState, ds, 1)
	}

	loaded, err := Load(goldenState)
	if err != nil {
		t.Fatalf("the golden state does not load: %v", err)
	}
	if diff := loaded.Fingerprint.Diff(testFingerprint(ds)); diff != "" {
		t.Fatalf("golden fingerprint: %s", diff)
	}
	for i, f := range loaded.Syncer.Tailer.Files {
		if f.Offset != int64(len(half[i])) || len(f.Carry) != 0 {
			t.Fatalf("archive %d: the golden state stopped at offset %d (carry %d B), its half is %d B",
				i, f.Offset, len(f.Carry), len(half[i]))
		}
		// The inodes are those of the machine that wrote the file.
		loaded.Syncer.Tailer.Files[i].InodeOK = false
	}
	if len(loaded.Syncer.Pipeline.Jobs) == 0 || len(loaded.Syncer.Pipeline.Attr) == 0 {
		t.Fatalf("the golden state holds %d jobs and %d attributed runs", len(loaded.Syncer.Pipeline.Jobs), len(loaded.Syncer.Pipeline.Attr))
	}

	dir := t.TempDir()
	writeArchiveFiles(t, dir, full)
	want := analyzeFiles(t, dir, ds, 1)

	// The pipeline alone, restored from its own copy of the state and fed
	// the rest of every archive.
	own, err := Load(goldenState)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := core.RestoreIncremental(ds.Topology, time.UTC, core.Options{}, own.Syncer.Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Append(core.Delta{
		Accounting: []byte(full[0][len(half[0]):]),
		Apsys:      []byte(full[1][len(half[1]):]),
		Syslog:     []byte(full[2][len(half[2]):]),
	}); err != nil {
		t.Fatal(err)
	}
	got, err := inc.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the pipeline restored from the golden state diverged from Analyze (%d vs %d runs, %d vs %d jobs, %d vs %d events)",
			len(got.Runs), len(want.Runs), got.NumJobs, want.NumJobs, len(got.Events), len(want.Events))
	}

	// A daemon's syncer resumed from it.
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
	checkSnapshot(t, st.Current(), want, ds)
}
