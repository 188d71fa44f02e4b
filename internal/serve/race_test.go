package serve

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"logdiver/internal/machine"
	"logdiver/internal/store"
)

// TestNoMixedEpochReads hammers the query endpoints from many goroutines
// while the writer installs a stream of snapshots, and asserts every
// response is internally consistent with exactly one epoch. The invariant:
// the k-th installed snapshot (epoch k) holds exactly k runs, so any
// response where total_runs != epoch mixed state from two snapshots.
// Run under -race this also proves the pointer-swap publication is sound.
func TestNoMixedEpochReads(t *testing.T) {
	top, err := machine.New(machine.Small())
	if err != nil {
		t.Fatal(err)
	}
	const (
		epochs  = 60
		readers = 8
	)
	// Pre-build all snapshots so the install loop is pure publication.
	snaps := make([]*store.Snapshot, epochs)
	for i := range snaps {
		snaps[i] = syntheticSnapshot(t, top, i+1)
	}
	st := store.New()
	srv, err := New(Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	st.Install(snaps[0])

	var (
		stop     atomic.Bool
		checked  atomic.Int64
		wg       sync.WaitGroup
		failOnce sync.Once
		failMsg  string
	)
	fail := func(msg string) {
		failOnce.Do(func() { failMsg = msg })
		stop.Store(true)
	}

	// Readers run a fixed iteration count rather than until the writer
	// finishes: the install loop completes in microseconds, and the
	// invariant (runs == epoch) holds for the final snapshot too, so late
	// reads still check publication consistency.
	const iters = 400
	endpoints := []string{"/v1/outcomes", "/v1/health", "/v1/mtti", "/v1/scaling?class=xe"}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters && !stop.Load(); i++ {
				path := endpoints[(g+i)%len(endpoints)]
				req := httptest.NewRequest("GET", path, nil)
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code != 200 {
					fail(fmt.Sprintf("%s: status %d", path, rec.Code))
					return
				}
				var body struct {
					Epoch     uint64 `json:"epoch"`
					TotalRuns *int   `json:"total_runs"`
					Runs      *int   `json:"runs"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
					fail(fmt.Sprintf("%s: bad JSON: %v", path, err))
					return
				}
				runs := -1
				switch {
				case body.TotalRuns != nil:
					runs = *body.TotalRuns
				case body.Runs != nil:
					runs = *body.Runs
				default:
					continue // endpoint without a run count (scaling, mtti)
				}
				if uint64(runs) != body.Epoch {
					fail(fmt.Sprintf("%s: mixed-epoch read: epoch %d with %d runs", path, body.Epoch, runs))
					return
				}
				checked.Add(1)
			}
		}(g)
	}

	for _, s := range snaps[1:] {
		st.Install(s)
		runtime.Gosched()
	}
	wg.Wait()
	if failMsg != "" {
		t.Fatal(failMsg)
	}
	if checked.Load() == 0 {
		t.Fatal("no consistency checks executed")
	}
}

// TestCacheNoStaleEpoch hammers the cached endpoints while the writer races
// epoch installs, asserting the cache can never serve stale bytes: the ETag
// header, the epoch inside the body, and the run count must all agree on
// every single response. The cache is keyed by snapshot pointer, so a
// violation here would mean a handler was handed bytes rendered from a
// snapshot other than the one it loaded.
func TestCacheNoStaleEpoch(t *testing.T) {
	top, err := machine.New(machine.Small())
	if err != nil {
		t.Fatal(err)
	}
	const (
		epochs  = 50
		readers = 8
		iters   = 300
	)
	snaps := make([]*store.Snapshot, epochs)
	for i := range snaps {
		snaps[i] = syntheticSnapshot(t, top, i+1)
	}
	st := store.New()
	srv, err := New(Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	st.Install(snaps[0])

	var (
		stop    atomic.Bool
		checked atomic.Int64
		wg      sync.WaitGroup
		failMu  sync.Mutex
		failMsg string
	)
	fail := func(msg string) {
		failMu.Lock()
		if failMsg == "" {
			failMsg = msg
		}
		failMu.Unlock()
		stop.Store(true)
	}

	paths := []string{"/v1/outcomes", "/v1/runs", "/v1/runs?limit=7"}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters && !stop.Load(); i++ {
				path := paths[(g+i)%len(paths)]
				req := httptest.NewRequest("GET", path, nil)
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				if rec.Code != 200 {
					fail(fmt.Sprintf("%s: status %d", path, rec.Code))
					return
				}
				var body struct {
					Epoch     uint64 `json:"epoch"`
					Total     *int   `json:"total"`
					TotalRuns *int   `json:"total_runs"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
					fail(fmt.Sprintf("%s: bad JSON: %v", path, err))
					return
				}
				wantETag := fmt.Sprintf("%q", fmt.Sprint(body.Epoch))
				if etag := rec.Header().Get("ETag"); etag != wantETag {
					fail(fmt.Sprintf("%s: stale cache: ETag %s but body epoch %d", path, etag, body.Epoch))
					return
				}
				runs := -1
				if body.Total != nil {
					runs = *body.Total
				} else if body.TotalRuns != nil {
					runs = *body.TotalRuns
				}
				if runs >= 0 && uint64(runs) != body.Epoch {
					fail(fmt.Sprintf("%s: mixed-epoch cached read: epoch %d with %d runs", path, body.Epoch, runs))
					return
				}
				checked.Add(1)
			}
		}(g)
	}

	for _, s := range snaps[1:] {
		st.Install(s)
		runtime.Gosched()
	}
	wg.Wait()
	if failMsg != "" {
		t.Fatal(failMsg)
	}
	if checked.Load() == 0 {
		t.Fatal("no cache consistency checks executed")
	}
}

// TestHealthReadsOneEpoch is the manager-backed sibling of
// TestNoMixedEpochReads for /v1/health, the one body that reports both the
// merged snapshot and the fleet view: every body must pair "epoch" with the
// same "fleet.fleet_epoch", under concurrent sync rounds and — the last
// step — with the fleet held where publish passes through: merged snapshot
// installed, view not yet stored.
func TestHealthReadsOneEpoch(t *testing.T) {
	mgr, ts, root := testFleetServer(t)
	check := func() bool {
		rec := httptest.NewRecorder()
		ts.Config.Handler.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/health", nil))
		var body struct {
			Epoch uint64 `json:"epoch"`
			Fleet struct {
				FleetEpoch uint64 `json:"fleet_epoch"`
			} `json:"fleet"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != 200 || err != nil {
			t.Errorf("/v1/health: status %d, %v", rec.Code, err)
		} else if body.Epoch != body.Fleet.FleetEpoch {
			t.Errorf("/v1/health mixed epochs: epoch %d beside fleet_epoch %d", body.Epoch, body.Fleet.FleetEpoch)
		}
		return !t.Failed()
	}

	var (
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() && check() {
			}
		}()
	}
	// Any appended line advances its shard's epoch, hence the fleet's.
	first := mgr.View().FleetEpoch
	const rounds = 40
	for i := 0; i < rounds; i++ {
		appendLine(t, filepath.Join(root, mgr.Machines()[i%2], store.SyslogFile), "not a syslog line\n")
		mgr.SyncRound(t.Context())
	}
	stop.Store(true)
	wg.Wait()
	if got := mgr.View().FleetEpoch; got != first+rounds {
		t.Fatalf("fleet epoch %d after %d appending rounds from %d: the readers raced nothing", got, rounds, first)
	}

	mgr.FleetStore().Install(store.Merge(store.Zero(), mgr.View().Merged))
	check()
}
