package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"logdiver/internal/alps"
	"logdiver/internal/core"
	"logdiver/internal/correlate"
	"logdiver/internal/fleet"
	"logdiver/internal/gen"
	"logdiver/internal/machine"
	"logdiver/internal/metrics"
	"logdiver/internal/serve"
	"logdiver/internal/store"
)

func TestParseMix(t *testing.T) {
	mix, err := parseMix(defaultMix)
	if err != nil {
		t.Fatalf("default mix rejected: %v", err)
	}
	if len(mix) != 9 || mixTotal(mix) != 15 {
		t.Fatalf("default mix: %d entries, weight %d, want 9 and 15", len(mix), mixTotal(mix))
	}
	if mix[0].kind != "outcomes" || mix[0].weight != 3 {
		t.Errorf("first entry %+v", mix[0])
	}
	for _, bad := range []string{"", "outcomes", "outcomes=0", "outcomes=-1", "nosuch=1", "outcomes=x"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted, want error", bad)
		}
	}
	fm, err := parseMix(fleetMix)
	if err != nil {
		t.Fatalf("fleet mix rejected: %v", err)
	}
	if len(fm) != 11 || mixTotal(fm) != 20 {
		t.Fatalf("fleet mix: %d entries, weight %d, want 11 and 20", len(fm), mixTotal(fm))
	}
}

func TestPercentile(t *testing.T) {
	if got := percentile(nil, 0.99); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
	lats := make([]time.Duration, 100)
	for i := range lats {
		lats[i] = time.Duration(i+1) * time.Millisecond // 1ms..100ms sorted
	}
	tests := []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 50 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
		{0.999, 100 * time.Millisecond},
		{1, 100 * time.Millisecond},
	}
	for _, tc := range tests {
		if got := percentile(lats, tc.q); got != tc.want {
			t.Errorf("percentile(%.3f) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

// TestPickPlanDeterministic pins the seeded mix: the same seed draws the
// same request sequence, a different seed a different one.
func TestPickPlanDeterministic(t *testing.T) {
	mix, err := parseMix(defaultMix)
	if err != nil {
		t.Fatal(err)
	}
	total := mixTotal(mix)
	tg := targets{apids: []uint64{1, 2, 3}}
	draw := func(seed int64) []string {
		rng := rand.New(rand.NewSource(seed))
		seq := make([]string, 200)
		for i := range seq {
			p := pickPlan(rng, mix, total, tg)
			seq[i] = p.path
			if p.cond {
				seq[i] += "+cond"
			}
			if p.gzip {
				seq[i] += "+gzip"
			}
		}
		return seq
	}
	a, b, c := draw(7), draw(7), draw(8)
	if strings.Join(a, " ") != strings.Join(b, " ") {
		t.Fatal("same seed drew different sequences")
	}
	if strings.Join(a, " ") == strings.Join(c, " ") {
		t.Fatal("different seeds drew identical sequences")
	}
	// The default mix must reach every endpoint family.
	joined := strings.Join(a, " ")
	for _, want := range []string{"/v1/outcomes", "/v1/scaling?class=", "/v1/mtti",
		"/v1/categories", "/v1/runs ", "/v1/runs?limit=", "/v1/runs/", "+cond", "+gzip"} {
		if !strings.Contains(joined+" ", want) {
			t.Errorf("200 draws never produced %q", want)
		}
	}
}

// TestVerdict pins the one gate loadgen enforces itself: more than one
// error per thousand requests fails the run, and sheds never count.
func TestVerdict(t *testing.T) {
	shed := make([]time.Duration, 900)
	err := verdict(&results{total: 1000, okLat: make([]time.Duration, 98), shedLat: shed, errs: 2})
	if err == nil || !strings.Contains(err.Error(), "2 errors in 1000 requests (0.20%)") {
		t.Errorf("2 errors in 1000: err = %v, want one naming the share", err)
	}
	if err := verdict(&results{total: 1000, okLat: make([]time.Duration, 99), shedLat: shed, errs: 1}); err != nil {
		t.Errorf("1 error in 1000 with 900 sheds: err = %v, want nil", err)
	}
}

// testSnapshotServer boots a real serve.Server over a synthetic snapshot.
func testSnapshotServer(t *testing.T, cfg serve.Config) *httptest.Server {
	t.Helper()
	top, err := machine.New(machine.Small())
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	runs := make([]correlate.AttributedRun, 40)
	for i := range runs {
		runs[i] = correlate.AttributedRun{
			AppRun: alps.AppRun{
				ApID:      uint64(i + 1),
				Placement: machine.Placement{{Lo: machine.NodeID(i % 8), Hi: machine.NodeID(i % 8)}},
				Start:     base.Add(time.Duration(i) * time.Minute),
				End:       base.Add(time.Duration(i+1) * time.Minute),
			},
			Attribution: correlate.Attribution{Class: machine.ClassXE, Outcome: correlate.OutcomeSuccess},
		}
	}
	snap, err := store.Build(&core.Result{Runs: runs, Agg: metrics.Fold(runs)}, top, store.IngestStats{}, base)
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	st.Install(snap)
	cfg.Store = st
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// TestClosedLoopIntegration runs the closed loop against a real serving
// stack: every request must land (no errors, no sheds on an unbounded
// server) and the report must be internally consistent.
func TestClosedLoopIntegration(t *testing.T) {
	ts := testSnapshotServer(t, serve.Config{})
	client := &http.Client{Timeout: 5 * time.Second}
	tg, err := preflight(client, ts.URL, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(tg.apids) != 40 {
		t.Fatalf("preflight learned %d apids, want 40", len(tg.apids))
	}
	if len(tg.machines) != 0 {
		t.Fatalf("single-machine daemon reported fleet machines %v", tg.machines)
	}
	cfg := config{
		baseURL: ts.URL, workers: 4, requests: 300, seed: 1,
		mix: mustMix(t), timeout: 5 * time.Second,
	}
	res := runClosed(cfg, client, tg)
	if res.total != 300 {
		t.Fatalf("total %d, want 300", res.total)
	}
	if res.errs != 0 || len(res.shedLat) != 0 {
		t.Fatalf("unbounded server: %d errors, %d sheds, want 0/0", res.errs, len(res.shedLat))
	}
	if len(res.okLat) != 300 {
		t.Fatalf("ok %d, want 300", len(res.okLat))
	}
	p50, p99, p999 := percentile(res.okLat, 0.5), percentile(res.okLat, 0.99), percentile(res.okLat, 0.999)
	if p50 <= 0 || p50 > p99 || p99 > p999 {
		t.Fatalf("percentile ordering broke: p50=%v p99=%v p999=%v", p50, p99, p999)
	}
}

// TestOpenLoopIntegration runs a short open-loop schedule and checks the
// arrival accounting: every scheduled request resolves to exactly one
// outcome class.
func TestOpenLoopIntegration(t *testing.T) {
	ts := testSnapshotServer(t, serve.Config{})
	client := &http.Client{Timeout: 5 * time.Second}
	tg, err := preflight(client, ts.URL, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{
		baseURL: ts.URL, workers: 4, rps: 400, duration: 500 * time.Millisecond,
		seed: 3, mix: mustMix(t), timeout: 5 * time.Second,
	}
	res := runOpen(cfg, client, tg)
	want := int(cfg.duration.Seconds() * cfg.rps)
	if res.total != want {
		t.Fatalf("total %d, want %d", res.total, want)
	}
	if got := len(res.okLat) + len(res.shedLat) + res.errs; got != want {
		t.Fatalf("classified %d of %d outcomes", got, want)
	}
	if res.errs != 0 {
		t.Fatalf("%d errors against a healthy unbounded server", res.errs)
	}
}

// TestShedClassification drives the loop against a rate-limited server:
// sheds must be counted as sheds (not errors), and the 429s must carry
// Retry-After to qualify.
func TestShedClassification(t *testing.T) {
	ts := testSnapshotServer(t, serve.Config{RateLimit: 5})
	client := &http.Client{Timeout: 5 * time.Second}
	tg, err := preflight(client, ts.URL, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// preflight consumed some of the bucket; the burst covers it.
	cfg := config{
		baseURL: ts.URL, workers: 4, requests: 100, seed: 1,
		mix: mustMix(t), timeout: 5 * time.Second,
	}
	res := runClosed(cfg, client, tg)
	if res.errs != 0 {
		t.Fatalf("%d errors; sheds must classify as sheds", res.errs)
	}
	if len(res.shedLat) == 0 {
		t.Fatal("100 requests through a 10-token bucket shed nothing")
	}
	if len(res.okLat) == 0 {
		t.Fatal("everything shed; the burst should have admitted some")
	}
	if len(res.okLat)+len(res.shedLat) != 100 {
		t.Fatalf("ok %d + shed %d != 100", len(res.okLat), len(res.shedLat))
	}
}

// TestShedWithoutRetryAfterIsError pins the contract check: a 503 missing
// Retry-After is a server bug, counted as an error.
func TestShedWithoutRetryAfterIsError(t *testing.T) {
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/v1/health" || r.URL.Path == "/v1/runs":
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"runs":[{"apid":1}]}`))
		case n.Add(1)%2 == 0:
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
		default:
			w.WriteHeader(http.StatusServiceUnavailable) // no Retry-After
		}
	}))
	defer ts.Close()
	client := &http.Client{Timeout: 5 * time.Second}
	tg, err := preflight(client, ts.URL, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{
		baseURL: ts.URL, workers: 2, requests: 40, seed: 1,
		mix: []mixEntry{{kind: "outcomes", weight: 1}}, timeout: 5 * time.Second,
	}
	res := runClosed(cfg, client, tg)
	if res.errs == 0 || len(res.shedLat) == 0 {
		t.Fatalf("want both errors (no hint) and sheds (hinted): errs=%d sheds=%d",
			res.errs, len(res.shedLat))
	}
	if res.errs+len(res.shedLat) != 40 {
		t.Fatalf("errs %d + sheds %d != 40", res.errs, len(res.shedLat))
	}
}

func mustMix(t *testing.T) []mixEntry {
	t.Helper()
	mix, err := parseMix(defaultMix)
	if err != nil {
		t.Fatal(err)
	}
	return mix
}

// TestFleetMixIntegration drives the fleet kinds against a real fleet
// daemon stack: preflight learns the shard machine names from /v1/health
// and the closed loop lands every merged and per-machine fleet request.
func TestFleetMixIntegration(t *testing.T) {
	machines := gen.Fleet(2, 1, 31)
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
		if err := ds.WriteDir(filepath.Join(root, m.Name)); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "[shard %s]\narchive-dir = %s\nmachine = small\n",
			m.Name, filepath.Join(root, m.Name))
	}
	fcfg, err := fleet.ParseConfig(b.String())
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := fleet.NewManager(fleet.ManagerConfig{Config: fcfg})
	if err != nil {
		t.Fatal(err)
	}
	mgr.SyncRound(t.Context())
	srv, err := serve.New(serve.Config{Fleet: mgr})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	client := &http.Client{Timeout: 5 * time.Second}
	tg, err := preflight(client, ts.URL, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(tg.machines) != 2 {
		t.Fatalf("preflight learned machines %v, want 2", tg.machines)
	}

	mix, err := parseMix("fleet=3,fleet_machine=2")
	if err != nil {
		t.Fatal(err)
	}
	// The seeded draw must reach both merged and per-machine paths.
	rng := rand.New(rand.NewSource(5))
	var joined strings.Builder
	for i := 0; i < 100; i++ {
		joined.WriteString(pickPlan(rng, mix, mixTotal(mix), tg).path + " ")
	}
	for _, want := range []string{"/v1/fleet/outcomes", "/v1/fleet/scaling?class=",
		"/v1/fleet/mtti", "/v1/fleet/categories", "?machine=" + tg.machines[0], "?machine=" + tg.machines[1]} {
		if !strings.Contains(joined.String(), want) {
			t.Errorf("100 fleet draws never produced %q", want)
		}
	}

	cfg := config{
		baseURL: ts.URL, workers: 4, requests: 200, seed: 1,
		mix: mix, timeout: 5 * time.Second,
	}
	res := runClosed(cfg, client, tg)
	if res.errs != 0 || len(res.shedLat) != 0 {
		t.Fatalf("fleet mix: %d errors, %d sheds, want 0/0", res.errs, len(res.shedLat))
	}
	if len(res.okLat) != 200 {
		t.Fatalf("ok %d, want 200", len(res.okLat))
	}
}
