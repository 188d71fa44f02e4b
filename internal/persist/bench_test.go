package persist

import (
	"path/filepath"
	"testing"

	"logdiver/internal/core"
	"logdiver/internal/store"
)

// BenchmarkRestore measures what a daemon restart costs with and without
// durable state over the same archives: "cold" rebuilds the analysis from
// the raw archives (the pre-persistence behavior), "warm" loads the state
// file and resumes (the speedup comes from skipping re-ingestion, not from
// cores). bench/ reports the same pair end to end as setup_s beside
// warm_restart_s. Both paths end with an installed snapshot covering every
// run, asserted each iteration.
func BenchmarkRestore(b *testing.B) {
	dir, stateDir := b.TempDir(), b.TempDir()
	statePath := filepath.Join(stateDir, StateFile)
	ds := smallDataset(b, 0, 21)
	writeArchives(b, dir, ds)
	firstLife(b, dir, statePath, ds, 0)

	checkSnap := func(b *testing.B, st *store.Store) {
		b.Helper()
		snap := st.Current()
		if snap == nil || snap.Outcomes.Total != len(ds.Runs) {
			b.Fatalf("restart produced a wrong snapshot: %+v", snap)
		}
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st := store.New()
			sy, err := store.NewSyncer(store.SyncerConfig{
				Tailer:   store.NewTailer(dir),
				Store:    st,
				Topology: ds.Topology,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sy.Sync(); err != nil {
				b.Fatal(err)
			}
			checkSnap(b, st)
		}
	})

	b.Run("warm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			loaded, err := Load(statePath)
			if err != nil {
				b.Fatal(err)
			}
			st := store.New()
			if err := st.Restore(loaded.Epoch); err != nil {
				b.Fatal(err)
			}
			sy, err := store.NewSyncer(store.SyncerConfig{
				Tailer:   store.NewTailer(dir),
				Store:    st,
				Topology: ds.Topology,
				Resume:   loaded.Syncer,
				Options:  core.Options{},
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sy.Sync(); err != nil {
				b.Fatal(err)
			}
			checkSnap(b, st)
		}
	})
}
