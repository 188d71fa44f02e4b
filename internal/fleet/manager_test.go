package fleet

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"logdiver/internal/core"
	"logdiver/internal/correlate"
	"logdiver/internal/gen"
	"logdiver/internal/machine"
	"logdiver/internal/parse"
	"logdiver/internal/persist"
	"logdiver/internal/raceflag"
	"logdiver/internal/store"
)

// thinFleet returns k fast small-machine fixtures.
func thinFleet(t testing.TB, k int) []gen.FleetMachine {
	t.Helper()
	machines := gen.Fleet(k, 1, 11)
	for i := range machines {
		machines[i].Config.Workload.JobsPerDay = 60
	}
	return machines
}

// writeWindow appends window w of machine m to its archive dir.
func writeWindow(t testing.TB, dir string, m gen.FleetMachine, w int) {
	t.Helper()
	ds, err := gen.Generate(m.Window(w))
	if err != nil {
		t.Fatal(err)
	}
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

// testFleet lays out archive and state dirs for the machines under root and
// returns the parsed config.
func testFleet(t testing.TB, root string, machines []gen.FleetMachine, withState bool) *Config {
	t.Helper()
	var b strings.Builder
	for _, m := range machines {
		dir := filepath.Join(root, m.Name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		writeWindow(t, dir, m, 0)
		fmt.Fprintf(&b, "[shard %s]\narchive-dir = %s\nmachine = small\n", m.Name, dir)
		if withState {
			fmt.Fprintf(&b, "state-dir = %s\n", filepath.Join(root, "state", m.Name))
		}
	}
	cfg, err := ParseConfig(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestManagerLifecycle(t *testing.T) {
	machines := thinFleet(t, 3)
	root := t.TempDir()
	cfg := testFleet(t, root, machines, false)
	mgr, err := NewManager(ManagerConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}

	// Before the first round: no merged snapshot, every shard waiting.
	v := mgr.View()
	if v.Merged != nil || !v.Partial {
		t.Fatalf("pre-sync view: merged=%v partial=%v", v.Merged, v.Partial)
	}
	for _, st := range v.Shards {
		if st.Status != "waiting" {
			t.Fatalf("shard %s status %q before first round", st.Name, st.Status)
		}
	}

	round := mgr.SyncRound(context.Background())
	if !round.Installed || round.FleetEpoch != 1 {
		t.Fatalf("round 1: installed=%v fleet epoch=%d", round.Installed, round.FleetEpoch)
	}
	v = mgr.View()
	if v.Merged == nil || v.Partial {
		t.Fatalf("post-sync view: merged=%v partial=%v", v.Merged, v.Partial)
	}
	var total int
	for i, st := range v.Shards {
		if st.Status != "ok" || st.Epoch != 1 {
			t.Fatalf("shard %s: status=%q epoch=%d", st.Name, st.Status, st.Epoch)
		}
		if want := (store.ShardEpoch{Machine: st.Name, Epoch: 1}); v.Merged.Shards[i] != want {
			t.Fatalf("vector[%d] = %+v, want %+v", i, v.Merged.Shards[i], want)
		}
		total += st.Runs
	}
	if v.Merged.TotalRuns() != total {
		t.Fatalf("merged runs %d != shard sum %d", v.Merged.TotalRuns(), total)
	}
	if v.Merged.Partial {
		t.Fatal("full fleet marked partial")
	}

	// A data-less round installs nothing and keeps the fleet epoch.
	round = mgr.SyncRound(context.Background())
	if round.Installed || round.FleetEpoch != 1 {
		t.Fatalf("idle round: installed=%v fleet epoch=%d", round.Installed, round.FleetEpoch)
	}

	// Appending a window to one shard advances only that shard's epoch —
	// and the fleet epoch, because the vector changed.
	writeWindow(t, filepath.Join(root, machines[1].Name), machines[1], 1)
	round = mgr.SyncRound(context.Background())
	if !round.Installed || round.FleetEpoch != 2 {
		t.Fatalf("append round: installed=%v fleet epoch=%d", round.Installed, round.FleetEpoch)
	}
	v = mgr.View()
	for i, st := range v.Shards {
		wantEpoch := uint64(1)
		if st.Name == machines[1].Name {
			wantEpoch = 2
		}
		if st.Epoch != wantEpoch {
			t.Fatalf("shard %s epoch %d, want %d", st.Name, st.Epoch, wantEpoch)
		}
		if v.Merged.Shards[i].Epoch != wantEpoch {
			t.Fatalf("vector epoch for %s = %d, want %d", st.Name, v.Merged.Shards[i].Epoch, wantEpoch)
		}
	}
}

func TestManagerDegradedShard(t *testing.T) {
	machines := thinFleet(t, 3)
	root := t.TempDir()
	cfg := testFleet(t, root, machines, false)
	mgr, err := NewManager(ManagerConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	mgr.SyncRound(context.Background())
	healthyRuns := mgr.View().Merged.TotalRuns()

	// Kill one shard's syslog: replace the file with a directory, which
	// stats fine but fails to read. The shard must fail; the fleet must
	// keep serving the other shards plus this shard's last good snapshot,
	// marked partial.
	victim := machines[2].Name
	syslog := filepath.Join(root, victim, store.SyslogFile)
	if err := os.Remove(syslog); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(syslog, 0o755); err != nil {
		t.Fatal(err)
	}
	round := mgr.SyncRound(context.Background())
	if !round.Installed {
		t.Fatal("partial transition did not install a new merged snapshot")
	}
	v := mgr.View()
	if !v.Partial || v.Merged == nil || !v.Merged.Partial {
		t.Fatalf("degraded fleet: partial=%v merged partial=%v", v.Partial, v.Merged != nil && v.Merged.Partial)
	}
	if v.Merged.TotalRuns() != healthyRuns {
		t.Fatalf("degraded fleet dropped runs: %d, want last-good %d", v.Merged.TotalRuns(), healthyRuns)
	}
	for _, st := range v.Shards {
		if st.Name == victim {
			if st.Status != "failed" || st.LastError == "" || st.Snap == nil {
				t.Fatalf("victim shard: status=%q err=%q snap=%v", st.Status, st.LastError, st.Snap != nil)
			}
		} else if st.Status != "ok" {
			t.Fatalf("healthy shard %s degraded to %q", st.Name, st.Status)
		}
	}
	// Stable degraded state: no new install while nothing changes.
	round = mgr.SyncRound(context.Background())
	if round.Installed {
		t.Fatal("degraded steady state reinstalled the merged snapshot")
	}
}

func TestManagerWarmRestart(t *testing.T) {
	machines := thinFleet(t, 2)
	root := t.TempDir()
	cfg := testFleet(t, root, machines, true)
	mgr, err := NewManager(ManagerConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	mgr.SyncRound(context.Background())
	writeWindow(t, filepath.Join(root, machines[0].Name), machines[0], 1)
	mgr.SyncRound(context.Background())
	v1 := mgr.View()
	mgr.PersistAll()

	mgr2, err := NewManager(ManagerConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range mgr2.View().Shards {
		if st.Restore.Mode != "warm" {
			t.Fatalf("shard %s restore mode %q, want warm (%s)", st.Name, st.Restore.Mode, st.Restore.Detail)
		}
	}
	mgr2.SyncRound(context.Background())
	v2 := mgr2.View()
	if v2.Merged == nil {
		t.Fatal("no merged snapshot after warm restart")
	}
	if v2.Merged.TotalRuns() != v1.Merged.TotalRuns() {
		t.Fatalf("warm restart changed the fleet: %d runs, want %d", v2.Merged.TotalRuns(), v1.Merged.TotalRuns())
	}
	// Epochs continue: shard epochs advance past their persisted values
	// and the fleet epoch stays monotonic across the restart.
	for i, st := range v2.Shards {
		if st.Epoch <= v1.Shards[i].Epoch-1 {
			t.Fatalf("shard %s epoch went backward: %d after restart, %d before", st.Name, st.Epoch, v1.Shards[i].Epoch)
		}
	}
	if v2.FleetEpoch <= v1.FleetEpoch {
		t.Fatalf("fleet epoch not monotonic across restart: %d -> %d", v1.FleetEpoch, v2.FleetEpoch)
	}

	// A state file an older writer left, whose fingerprint still carries the
	// retired accounting zone field, restores warm under the machine, parse
	// mode and rules it was written with.
	golden, err := os.ReadFile(filepath.Join("..", "persist", "testdata", "state-v3.ldv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(golden, []byte("TimeZone")) {
		t.Fatal("the golden state no longer carries a TimeZone field; this case checks nothing")
	}
	upgrade := filepath.Join(root, "upgrade")
	if err := os.MkdirAll(filepath.Join(upgrade, "state"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(upgrade, "state", persist.StateFile), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := NewManager(ManagerConfig{Config: &Config{Shards: []ShardConfig{{
		Name: "golden", ArchiveDir: upgrade, Machine: MachineSmall, StateDir: filepath.Join(upgrade, "state"),
	}}}})
	if err != nil {
		t.Fatal(err)
	}
	if r := old.View().Shards[0].Restore; r.Mode != "warm" {
		t.Fatalf("the older writer's state booted %q (%s), want warm", r.Mode, r.Detail)
	}
}

// TestManagerFleetEpochMonotonicAcrossPartialFlips pins the fleet ETag
// contract across a restart: a merged install caused by a bare Partial flip
// advances the fleet epoch and no shard's, so the restored shard epochs
// alone under-count the fleet epochs already handed out. Every fleet epoch
// must name one (vector, partial) state across both lives of the state dir.
func TestManagerFleetEpochMonotonicAcrossPartialFlips(t *testing.T) {
	machines := thinFleet(t, 1)
	root := t.TempDir()
	cfg := testFleet(t, root, machines, true)
	mgr, err := NewManager(ManagerConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}

	seen := map[uint64]string{}
	sync := func(m *Manager) *View {
		t.Helper()
		m.SyncRound(context.Background())
		v := m.View()
		if v.Merged == nil {
			t.Fatal("no merged snapshot")
		}
		state := fmt.Sprintf("%+v partial=%v", v.Merged.Shards, v.Merged.Partial)
		if prev, ok := seen[v.FleetEpoch]; ok && prev != state {
			t.Fatalf("fleet epoch %d reused: was %s, now %s", v.FleetEpoch, prev, state)
		}
		seen[v.FleetEpoch] = state
		return v
	}

	sync(mgr)
	// Fail the shard (a directory where syslog.log was), then heal it by
	// moving the file back: two Partial flips, at most one new shard epoch.
	syslog := filepath.Join(root, machines[0].Name, store.SyslogFile)
	if err := os.Rename(syslog, syslog+".aside"); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(syslog, 0o755); err != nil {
		t.Fatal(err)
	}
	if v := sync(mgr); !v.Partial {
		t.Fatal("unreadable syslog did not degrade the fleet")
	}
	if err := os.Remove(syslog); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(syslog+".aside", syslog); err != nil {
		t.Fatal(err)
	}
	before := sync(mgr)
	if before.Partial || before.FleetEpoch <= before.Shards[0].Epoch {
		t.Fatalf("healed fleet: partial=%v fleet epoch %d shard epoch %d, want a full fleet whose epoch outran its shard's",
			before.Partial, before.FleetEpoch, before.Shards[0].Epoch)
	}
	mgr.PersistAll()

	mgr2, err := NewManager(ManagerConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if after := sync(mgr2); after.FleetEpoch <= before.FleetEpoch {
		t.Fatalf("fleet epoch went backward across the restart: %d -> %d", before.FleetEpoch, after.FleetEpoch)
	}
}

func TestManagerStrictRefusesBadState(t *testing.T) {
	machines := thinFleet(t, 1)
	root := t.TempDir()
	cfg := testFleet(t, root, machines, true)
	mgr, err := NewManager(ManagerConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	mgr.SyncRound(context.Background())
	mgr.PersistAll()

	// Same state, different fingerprint (strict mode changes the parse
	// fingerprint): strict refuses, lenient falls back cold.
	strict := core.Options{ParseMode: parse.Strict}
	if _, err := NewManager(ManagerConfig{Config: cfg, Options: strict}); err == nil {
		t.Fatal("strict mode accepted a fingerprint-mismatched state file")
	}
	mgr2, err := NewManager(ManagerConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range mgr2.View().Shards {
		if st.Restore.Mode != "warm" {
			t.Fatalf("matching fingerprint restored %q, want warm", st.Restore.Mode)
		}
	}
}

// TestManagerNoMixedEpochRead is the race-stress acceptance test: shards
// install concurrently with fleet readers, and no reader may ever observe a
// view whose aggregates mix per-shard epochs. Run counts act as the oracle:
// every (machine, epoch) pair has a precomputed from-scratch run count, and
// every observed fleet state must total exactly the sum its epoch vector
// claims.
func TestManagerNoMixedEpochRead(t *testing.T) {
	machines := thinFleet(t, 2)
	const maxWindows = 3

	// Precompute the expected run count of every (machine, epoch): epoch e
	// serves windows 0..e-1.
	expect := map[store.ShardEpoch]int{}
	for _, m := range machines {
		var acc, aps, sys strings.Builder
		for w := 0; w < maxWindows; w++ {
			ds, err := gen.Generate(m.Window(w))
			if err != nil {
				t.Fatal(err)
			}
			if err := ds.WriteAccounting(&acc); err != nil {
				t.Fatal(err)
			}
			if err := ds.WriteApsys(&aps); err != nil {
				t.Fatal(err)
			}
			if err := ds.WriteErrorLog(&sys); err != nil {
				t.Fatal(err)
			}
			top, err := machine.New(m.Config.Machine)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Analyze(core.Archives{
				Accounting: strings.NewReader(acc.String()),
				Apsys:      strings.NewReader(aps.String()),
				Syslog:     strings.NewReader(sys.String()),
			}, top, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			expect[store.ShardEpoch{Machine: m.Name, Epoch: uint64(w + 1)}] = len(res.Runs)
		}
	}

	root := t.TempDir()
	cfg := testFleet(t, root, machines, false)
	mgr, err := NewManager(ManagerConfig{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}

	check := func(snap *store.Snapshot) {
		if snap == nil {
			return
		}
		want := 0
		for _, se := range snap.EpochVector() {
			n, ok := expect[se]
			if !ok {
				t.Errorf("observed unknown shard epoch %+v", se)
				return
			}
			want += n
		}
		if snap.TotalRuns() != want {
			t.Errorf("mixed-epoch read: vector %+v claims %d runs, snapshot has %d",
				snap.EpochVector(), want, snap.TotalRuns())
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				// Both read paths: the published View and the fleet store.
				if v := mgr.View(); v.Merged != nil {
					check(v.Merged)
					// Intra-view consistency: the merged vector must match
					// the statuses it was folded from.
					sum := 0
					for i, st := range v.Shards {
						if st.Snap == nil {
							continue
						}
						if got := v.Merged.Shards[i]; got.Epoch != st.Snap.Epoch {
							t.Errorf("view vector[%d]=%+v but shard snap epoch %d", i, got, st.Snap.Epoch)
						}
						sum += st.Snap.TotalRuns()
					}
					if sum != v.Merged.TotalRuns() {
						t.Errorf("view merged runs %d != fold of its shard snaps %d", v.Merged.TotalRuns(), sum)
					}
				}
				check(mgr.FleetStore().Current())
			}
		}()
	}

	// Driver: append windows shard-by-shard with a sync round after each,
	// while the readers hammer the query plane.
	mgr.SyncRound(context.Background())
	for w := 1; w < maxWindows; w++ {
		for _, m := range machines {
			writeWindow(t, filepath.Join(root, m.Name), m, w)
			mgr.SyncRound(context.Background())
			time.Sleep(time.Millisecond)
		}
	}
	close(done)
	wg.Wait()
}

// TestManagerIdleRoundDoesNotMerge: a poll that finds no new bytes on any
// shard must not fold the shards again — a merge copies every run and
// recomputes every aggregate, and the daemon polls every -poll-interval. The
// merged snapshot stays the same object and the round's allocations stay
// under a fixed ceiling: per shard a poll and a status row, nothing per
// merge and nothing per run. Measured 47 on three shards; the merges that
// used to run on every idle round added 104.
func TestManagerIdleRoundDoesNotMerge(t *testing.T) {
	machines := thinFleet(t, 3)
	mgr, err := NewManager(ManagerConfig{Config: testFleet(t, t.TempDir(), machines, false)})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if r := mgr.SyncRound(ctx); !r.Installed {
		t.Fatalf("first round installed nothing: %+v", r)
	}
	merged := mgr.View().Merged
	if merged.TotalRuns() == 0 {
		t.Fatal("fixture has no runs")
	}
	if r := mgr.SyncRound(ctx); r.Installed || mgr.View().Merged != merged {
		t.Fatalf("idle round replaced the merged snapshot (installed=%v)", r.Installed)
	}
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const ceiling = 80
	if n := testing.AllocsPerRun(20, func() { mgr.SyncRound(ctx) }); n > ceiling {
		t.Errorf("idle SyncRound on 3 shards: %.0f allocs/op, ceiling %d", n, ceiling)
	}
	if mgr.View().Merged != merged {
		t.Fatal("idle rounds replaced the merged snapshot")
	}
}

// TestSyncRoundFoldsOnce: a round in which every shard advanced publishes
// with one fold — one concatenation of the shards' runs plus one set of
// aggregates — not a chain of pairwise merges whose intermediate snapshots
// are thrown away (on four shards that chain copied 2 + 3 + 4 shard-loads of
// runs). The shard half of the round is driven by hand so the publish half
// can be measured alone; its allocated bytes must stay under one and a half
// copies of the merged run slice (measured 1.23; the pairwise chain 2.82).
func TestSyncRoundFoldsOnce(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	machines := thinFleet(t, 4)
	root := t.TempDir()
	mgr, err := NewManager(ManagerConfig{Config: testFleet(t, root, machines, false)})
	if err != nil {
		t.Fatal(err)
	}
	if r := mgr.SyncRound(context.Background()); !r.Installed {
		t.Fatalf("first round installed nothing: %+v", r)
	}
	for i, m := range machines {
		writeWindow(t, filepath.Join(root, m.Name), m, 1)
		if installed, err := mgr.shards[i].sy.Sync(); err != nil || !installed {
			t.Fatalf("shard %s did not advance: %v, %v", m.Name, installed, err)
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	installed := mgr.publish()
	runtime.ReadMemStats(&after)

	merged := mgr.View().Merged
	if !installed || len(merged.Shards) != len(machines) {
		t.Fatalf("publish: installed=%v vector=%+v", installed, merged.Shards)
	}
	for _, se := range merged.Shards {
		if se.Epoch != 2 {
			t.Fatalf("shard %s at epoch %d: not every shard advanced", se.Machine, se.Epoch)
		}
	}
	oneCopy := uint64(merged.TotalRuns()) * uint64(unsafe.Sizeof(correlate.AttributedRun{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > oneCopy*3/2 {
		t.Errorf("publish over %d shards allocated %d bytes; one copy of the %d merged runs is %d: the shards were folded more than once",
			len(machines), got, merged.TotalRuns(), oneCopy)
	}
}

// TestMergeDurationCoversMerge pins what Ingest.MergeDuration measures: the
// fold publish makes, stamped on the merged snapshot alone. On a clock that
// steps once per reading, publish must read it twice around the merge, both
// times before the new merged snapshot is installed; the shards' own
// snapshots — in a one-shard fleet the merged snapshot is a lift of one —
// must keep a zero, and an idle round must keep the merged snapshot and its
// figure.
func TestMergeDurationCoversMerge(t *testing.T) {
	for _, k := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			machines := thinFleet(t, k)
			root := t.TempDir()
			clock := time.Date(2026, 8, 5, 0, 0, 0, 0, time.UTC)
			var (
				mu       sync.Mutex // shards sync, and read the clock, concurrently
				mgr      *Manager
				readings []uint64 // the fleet epoch at each reading
			)
			mgr, err := NewManager(ManagerConfig{
				Config: testFleet(t, root, machines, false),
				Now: func() time.Time {
					mu.Lock()
					defer mu.Unlock()
					clock = clock.Add(time.Second)
					if mgr != nil {
						readings = append(readings, mgr.fleet.Epoch())
					}
					return clock
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if r := mgr.SyncRound(context.Background()); !r.Installed {
				t.Fatalf("first round installed nothing: %+v", r)
			}
			for i, m := range machines {
				writeWindow(t, filepath.Join(root, m.Name), m, 1)
				if installed, err := mgr.shards[i].sy.Sync(); err != nil || !installed {
					t.Fatalf("shard %s did not advance: %v, %v", m.Name, installed, err)
				}
			}
			epoch := mgr.fleet.Epoch()
			readings = nil
			if !mgr.publish() {
				t.Fatal("publish installed nothing after every shard advanced")
			}
			merged := mgr.View().Merged
			if len(readings) != 2 || readings[0] != epoch || readings[1] != epoch {
				t.Errorf("publish read the clock at fleet epochs %v; want twice, both before installing epoch %d", readings, epoch+1)
			}
			if got := merged.Ingest.MergeDuration; got != time.Second {
				t.Errorf("merged MergeDuration %s, want the one step between publish's two readings", got)
			}
			for _, sh := range mgr.shards {
				if d := sh.store.Current().Ingest.MergeDuration; d != 0 {
					t.Errorf("shard %s snapshot carries MergeDuration %s", sh.cfg.Name, d)
				}
			}
			if r := mgr.SyncRound(context.Background()); r.Installed || mgr.View().Merged != merged || merged.Ingest.MergeDuration != time.Second {
				t.Errorf("idle round: installed=%v, merged MergeDuration %s", r.Installed, mgr.View().Merged.Ingest.MergeDuration)
			}
		})
	}
}
