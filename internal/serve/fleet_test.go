package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"logdiver/internal/core"
	"logdiver/internal/fleet"
	"logdiver/internal/gen"
	"logdiver/internal/machine"
	"logdiver/internal/parse"
	"logdiver/internal/store"
)

// newTestFleet lays out k generated shard archives and serves a manager
// over them that has not synced yet; the returned root locates the shard
// archive dirs for fault-injection tests.
func newTestFleet(t *testing.T, k int, opts core.Options) (*fleet.Manager, *httptest.Server, string) {
	t.Helper()
	machines := gen.Fleet(k, 1, 17)
	for i := range machines {
		machines[i].Config.Workload.JobsPerDay = 60
	}
	root := t.TempDir()
	var b strings.Builder
	for _, m := range machines {
		ds, err := gen.Generate(m.Config)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(root, m.Name)
		if err := ds.WriteDir(dir); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "[shard %s]\narchive-dir = %s\nmachine = small\n", m.Name, dir)
	}
	cfg, err := fleet.ParseConfig(b.String())
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := fleet.NewManager(fleet.ManagerConfig{Config: cfg, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Fleet: mgr})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return mgr, ts, root
}

// testFleetServer serves a 2-shard fleet after its first sync round.
func testFleetServer(t *testing.T) (*fleet.Manager, *httptest.Server, string) {
	t.Helper()
	mgr, ts, root := newTestFleet(t, 2, core.Options{})
	mgr.SyncRound(t.Context())
	return mgr, ts, root
}

// breakSyslog replaces a shard's syslog with a directory, which stats fine
// but fails to read: the shard's next sync round errors.
func breakSyslog(t *testing.T, root, machine string) {
	t.Helper()
	syslog := filepath.Join(root, machine, store.SyslogFile)
	if err := os.Remove(syslog); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(syslog, 0o755); err != nil {
		t.Fatal(err)
	}
}

// appendLine appends to an existing archive file.
func appendLine(t *testing.T, path, line string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(line); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFleetEndpointsMergedView(t *testing.T) {
	mgr, ts, _ := testFleetServer(t)
	v := mgr.View()

	var out outcomesResponse
	if code := getJSON(t, ts.URL+"/v1/fleet/outcomes", &out); code != http.StatusOK {
		t.Fatalf("fleet outcomes status %d", code)
	}
	if out.Epoch != v.FleetEpoch {
		t.Fatalf("fleet outcomes epoch %d, want fleet epoch %d", out.Epoch, v.FleetEpoch)
	}
	if out.Fleet == nil {
		t.Fatal("fleet outcomes without the fleet object")
	}
	if out.Fleet.Partial {
		t.Fatal("healthy fleet reported partial")
	}
	if len(out.Fleet.Shards) != 2 {
		t.Fatalf("epoch vector has %d entries, want 2", len(out.Fleet.Shards))
	}
	var shardRuns int
	for _, st := range v.Shards {
		shardRuns += st.Runs
	}
	if out.TotalRuns != shardRuns {
		t.Fatalf("merged total_runs %d != shard sum %d", out.TotalRuns, shardRuns)
	}

	// The merged scaling, mtti and categories views answer with the vector
	// too, for both classes.
	for _, path := range []string{"/v1/fleet/scaling", "/v1/fleet/scaling?class=xk", "/v1/fleet/mtti", "/v1/fleet/categories"} {
		var any struct {
			Epoch uint64    `json:"epoch"`
			Fleet fleetMeta `json:"fleet"`
		}
		if code := getJSON(t, ts.URL+path, &any); code != http.StatusOK {
			t.Fatalf("%s status %d", path, code)
		}
		if any.Epoch != v.FleetEpoch || len(any.Fleet.Shards) != 2 {
			t.Fatalf("%s: epoch %d vector %v", path, any.Epoch, any.Fleet.Shards)
		}
	}

	// Conditional revalidation within the fleet epoch is a 304.
	req, _ := http.NewRequest("GET", ts.URL+"/v1/fleet/outcomes", nil)
	req.Header.Set("If-None-Match", `"`+fmt.Sprint(v.FleetEpoch)+`"`)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional fleet request status %d, want 304", resp.StatusCode)
	}
}

func TestFleetMachineParam(t *testing.T) {
	mgr, ts, _ := testFleetServer(t)
	v := mgr.View()
	name := v.Shards[0].Name

	var out outcomesResponse
	if code := getJSON(t, ts.URL+"/v1/fleet/outcomes?machine="+name, &out); code != http.StatusOK {
		t.Fatalf("machine view status %d", code)
	}
	if out.Epoch != v.Shards[0].Epoch {
		t.Fatalf("machine view epoch %d, want shard epoch %d", out.Epoch, v.Shards[0].Epoch)
	}
	if out.TotalRuns != v.Shards[0].Runs {
		t.Fatalf("machine view runs %d, want %d", out.TotalRuns, v.Shards[0].Runs)
	}

	// The shard view carries its own machine-scoped entity tag and honors
	// conditional requests.
	resp, err := http.Get(ts.URL + "/v1/fleet/outcomes?machine=" + name)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if want := fmt.Sprintf("%q", fmt.Sprintf("%s-%d", name, v.Shards[0].Epoch)); etag != want {
		t.Fatalf("shard ETag %s, want %s", etag, want)
	}
	req, _ := http.NewRequest("GET", ts.URL+"/v1/fleet/outcomes?machine="+name, nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional shard request status %d, want 304", resp.StatusCode)
	}

	var e errResponse
	if code := getJSON(t, ts.URL+"/v1/fleet/outcomes?machine=nope", &e); code != http.StatusNotFound {
		t.Fatalf("unknown machine status %d, want 404", code)
	}
}

func TestFleetHealthAndMetrics(t *testing.T) {
	mgr, ts, _ := testFleetServer(t)
	v := mgr.View()

	var h healthResponse
	if code := getJSON(t, ts.URL+"/v1/health", &h); code != http.StatusOK {
		t.Fatalf("health status %d", code)
	}
	if h.Status != "ok" || h.Fleet == nil {
		t.Fatalf("health: status=%q fleet=%v", h.Status, h.Fleet)
	}
	if h.Fleet.FleetEpoch != v.FleetEpoch || h.Fleet.Partial {
		t.Fatalf("health fleet: %+v", h.Fleet)
	}
	if len(h.Fleet.Shards) != 2 {
		t.Fatalf("health shard rows: %d", len(h.Fleet.Shards))
	}
	for _, sh := range h.Fleet.Shards {
		if sh.Status != "ok" || sh.Epoch == 0 || sh.Runs == 0 {
			t.Fatalf("shard row %+v", sh)
		}
	}
	// The ingest block says where the rounds went: both pipeline stages are
	// there by name, summed over the shards, and nest inside the build.
	var raw struct {
		Ingest map[string]int64 `json:"ingest"`
	}
	getJSON(t, ts.URL+"/v1/health", &raw)
	a, r, b := raw.Ingest["append_duration_ns"], raw.Ingest["result_duration_ns"], raw.Ingest["build_duration_ns"]
	if a <= 0 || r <= 0 || a+r > b {
		t.Errorf("health ingest block %v: want 0 < append_duration_ns + result_duration_ns <= build_duration_ns", raw.Ingest)
	}
	// The fleet merge is timed on the merged snapshot the block reports.
	if m, ok := raw.Ingest["merge_duration_ns"]; !ok || m <= 0 {
		t.Errorf("health ingest block %v: want merge_duration_ns > 0", raw.Ingest)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`logdiver_shard_epoch{machine="` + v.Shards[0].Name + `"} 1`,
		`logdiver_shard_up{machine="` + v.Shards[1].Name + `"} 1`,
		`logdiver_shard_lag_seconds{machine="` + v.Shards[0].Name + `"}`,
		"logdiver_fleet_partial 0",
		"logdiver_fleet_shards 2",
		"logdiver_fleet_epoch 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestFleetHealthCountsMatchBatch: the snapshot keeps counts where the batch
// Result keeps slices, so the merged /v1/health runs/jobs/events must equal
// the summed lengths of a batch Analyze over each shard's archives.
func TestFleetHealthCountsMatchBatch(t *testing.T) {
	mgr, ts, root := newTestFleet(t, 3, core.Options{})
	mgr.SyncRound(t.Context())

	top, err := machine.New(machine.Small())
	if err != nil {
		t.Fatal(err)
	}
	var runs, jobs, events int
	for _, name := range mgr.Machines() {
		var a core.Archives
		for file, dst := range map[string]*io.Reader{
			store.AccountingFile: &a.Accounting, store.ApsysFile: &a.Apsys, store.SyslogFile: &a.Syslog,
		} {
			f, err := os.Open(filepath.Join(root, name, file))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			*dst = f
		}
		res, err := core.Analyze(a, top, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		runs, jobs, events = runs+len(res.Runs), jobs+res.NumJobs, events+len(res.Events)
	}
	if runs == 0 || jobs == 0 || events == 0 {
		t.Fatalf("fixture too thin: %d runs, %d jobs, %d events", runs, jobs, events)
	}

	var h healthResponse
	if code := getJSON(t, ts.URL+"/v1/health", &h); code != http.StatusOK {
		t.Fatalf("health status %d", code)
	}
	if len(h.Fleet.Shards) != 3 {
		t.Fatalf("health shard rows: %d", len(h.Fleet.Shards))
	}
	if h.Runs != runs || h.Jobs != jobs || h.Events != events {
		t.Fatalf("health reports %d runs, %d jobs, %d events; batch analyses sum to %d, %d, %d",
			h.Runs, h.Jobs, h.Events, runs, jobs, events)
	}
}

func TestFleetDegradedShardServes(t *testing.T) {
	mgr, ts, root := testFleetServer(t)
	before := mgr.View()
	victim := before.Shards[1].Name

	// The next poll fails, the shard degrades, and the fleet keeps serving
	// its last good snapshot merged with the healthy shard.
	breakSyslog(t, root, victim)
	mgr.SyncRound(t.Context())

	var out outcomesResponse
	if code := getJSON(t, ts.URL+"/v1/fleet/outcomes", &out); code != http.StatusOK {
		t.Fatalf("degraded fleet outcomes status %d", code)
	}
	if out.Fleet == nil || !out.Fleet.Partial {
		t.Fatal("degraded fleet response not marked partial")
	}
	if len(out.Fleet.Shards) != 2 {
		t.Fatalf("degraded vector lost a shard: %v", out.Fleet.Shards)
	}

	var h healthResponse
	getJSON(t, ts.URL+"/v1/health", &h)
	if h.Status != "degraded" || h.Fleet == nil || !h.Fleet.Partial {
		t.Fatalf("degraded health: status=%q fleet=%+v", h.Status, h.Fleet)
	}
	var sawFailed bool
	for _, sh := range h.Fleet.Shards {
		if sh.Name == victim {
			sawFailed = sh.Status == "failed" && sh.Error != ""
		}
	}
	if !sawFailed {
		t.Fatalf("victim %s not reported failed: %+v", victim, h.Fleet.Shards)
	}

	// The failed shard's per-machine view still answers from its last good
	// snapshot.
	var mv outcomesResponse
	if code := getJSON(t, ts.URL+"/v1/fleet/outcomes?machine="+victim, &mv); code != http.StatusOK {
		t.Fatalf("failed shard view status %d", code)
	}
	if mv.TotalRuns == 0 {
		t.Fatal("failed shard view lost its last good snapshot")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"logdiver_fleet_partial 1",
		`logdiver_shard_up{machine="` + victim + `"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("degraded metrics missing %q", want)
		}
	}
}

// TestStrictPoisoningStaysFailed: a strict-mode parse failure after the
// first snapshot poisons the shard's pipeline for good. Idle rounds after it
// must not heal the shard: it stays failed, health stays degraded, the last
// good snapshot keeps serving and the fleet epoch stops advancing.
func TestStrictPoisoningStaysFailed(t *testing.T) {
	mgr, ts, root := newTestFleet(t, 1, core.Options{ParseMode: parse.Strict})
	name := mgr.Machines()[0]
	// Generated syslogs carry a few malformed lines by design; strict mode
	// needs a clean first round.
	if err := os.WriteFile(filepath.Join(root, name, store.SyslogFile), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if r := mgr.SyncRound(t.Context()); r.Shards[0].Err != nil || !r.Installed {
		t.Fatalf("clean strict round: %+v", r)
	}

	appendLine(t, filepath.Join(root, name, store.AccountingFile), "not an accounting record\n")
	poisoned := mgr.SyncRound(t.Context())
	if poisoned.Shards[0].Err == nil {
		t.Fatal("strict mode accepted a malformed line")
	}

	for i := range 3 {
		r := mgr.SyncRound(t.Context()) // nothing new to read
		if r.Shards[0].Err == nil || r.Shards[0].Err.Error() != poisoned.Shards[0].Err.Error() {
			t.Fatalf("idle round %d: err %v, want the poisoning error %v", i, r.Shards[0].Err, poisoned.Shards[0].Err)
		}
		if r.Installed || r.FleetEpoch != poisoned.FleetEpoch {
			t.Fatalf("idle round %d: fleet epoch %d (installed=%v), want it parked at %d", i, r.FleetEpoch, r.Installed, poisoned.FleetEpoch)
		}
		var h healthResponse
		if code := getJSON(t, ts.URL+"/v1/health", &h); code != http.StatusOK {
			t.Fatalf("idle round %d: health status %d", i, code)
		}
		if h.Status != "degraded" || !h.Fleet.Partial || h.Fleet.Shards[0].Status != "failed" ||
			!strings.Contains(h.Fleet.Shards[0].Error, "line") {
			t.Fatalf("idle round %d: health %q, fleet %+v", i, h.Status, h.Fleet)
		}
	}
	var out outcomesResponse
	if code := getJSON(t, ts.URL+"/v1/outcomes", &out); code != http.StatusOK || out.TotalRuns == 0 {
		t.Fatalf("last good snapshot not served: status %d, %d runs", code, out.TotalRuns)
	}
}

// TestHealthShowsFirstRoundFailures: a shard that fails its very first sync
// round has no snapshot to fall back on, so /v1/health is the only place
// that can say why. While no shard has installed anything the answer is the
// 503 "starting" body and it must carry the shard rows; as soon as one shard
// serves, the same rows ride the 200 "degraded" body.
func TestHealthShowsFirstRoundFailures(t *testing.T) {
	for _, tc := range []struct {
		name       string
		shards     int
		opts       core.Options
		fail       func(t *testing.T, root, machine string)
		failed     int
		wantCode   int
		wantStatus string
	}{
		{"one-shard-unreadable-archive", 1, core.Options{}, breakSyslog, 1,
			http.StatusServiceUnavailable, "starting"},
		{"one-shard-strict-malformed-first-line", 1, core.Options{ParseMode: parse.Strict},
			func(t *testing.T, root, machine string) {
				path := filepath.Join(root, machine, store.AccountingFile)
				good, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append([]byte("not an accounting record\n"), good...), 0o644); err != nil {
					t.Fatal(err)
				}
			}, 1, http.StatusServiceUnavailable, "starting"},
		{"three-shards-all-failed", 3, core.Options{}, breakSyslog, 3,
			http.StatusServiceUnavailable, "starting"},
		{"three-shards-two-failed", 3, core.Options{}, breakSyslog, 2,
			http.StatusOK, "degraded"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mgr, ts, root := newTestFleet(t, tc.shards, tc.opts)
			names := mgr.Machines()
			for _, name := range names[:tc.failed] {
				tc.fail(t, root, name)
			}
			mgr.SyncRound(t.Context())

			var h healthResponse // a superset of the 503 body's fields
			if code := getJSON(t, ts.URL+"/v1/health", &h); code != tc.wantCode {
				t.Fatalf("status %d, want %d", code, tc.wantCode)
			}
			if h.Status != tc.wantStatus || h.Fleet == nil || !h.Fleet.Partial || len(h.Fleet.Shards) != tc.shards {
				t.Fatalf("health: status=%q fleet=%+v", h.Status, h.Fleet)
			}
			for i, sh := range h.Fleet.Shards {
				if sh.Name != names[i] || sh.Restore.Mode != "cold" {
					t.Errorf("row %d: %+v", i, sh)
				}
				if i < tc.failed {
					if sh.Status != "failed" || sh.Error == "" || sh.Epoch != 0 {
						t.Errorf("failed shard row %+v, want status failed with the error and epoch 0", sh)
					}
				} else if sh.Status != "ok" || sh.Error != "" {
					t.Errorf("healthy shard row %+v", sh)
				}
			}
		})
	}
}
