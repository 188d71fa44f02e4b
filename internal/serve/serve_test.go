package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"logdiver/internal/alps"
	"logdiver/internal/core"
	"logdiver/internal/correlate"
	"logdiver/internal/gen"
	"logdiver/internal/machine"
	"logdiver/internal/metrics"
	"logdiver/internal/store"
)

// testSnapshot builds a store holding one real snapshot over a generated
// dataset, shared across the endpoint tests.
var testSnapCache *store.Snapshot

func testStore(t testing.TB) *store.Store {
	t.Helper()
	st := store.New()
	if testSnapCache == nil {
		cfg := gen.Default()
		cfg.Machine = machine.Small()
		cfg.Days = 2
		cfg.Seed = 5
		cfg.Workload.JobsPerDay = 200
		cfg.Workload.XECapabilityJobsPerDay = 2
		cfg.Workload.XKCapabilityJobsPerDay = 1
		cfg.Workload.XECapabilitySizes = []int{256, 512}
		cfg.Workload.XKCapabilitySizes = []int{64, 160}
		cfg.Workload.FullScaleKneeXE = 512
		cfg.Workload.FullScaleKneeXK = 160
		cfg.Workload.SmallSizeMax = 96
		cfg.Rates.NodeFatalPerNodeHour *= 40
		cfg.Rates.NodeBenignPerNodeHour *= 20
		cfg.Rates.GPUFatalPerNodeHour *= 100
		ds, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var acc, aps, sys strings.Builder
		if err := ds.WriteAccounting(&acc); err != nil {
			t.Fatal(err)
		}
		if err := ds.WriteApsys(&aps); err != nil {
			t.Fatal(err)
		}
		if err := ds.WriteErrorLog(&sys); err != nil {
			t.Fatal(err)
		}
		res, err := core.Analyze(core.Archives{
			Accounting: strings.NewReader(acc.String()),
			Apsys:      strings.NewReader(aps.String()),
			Syslog:     strings.NewReader(sys.String()),
		}, ds.Topology, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		snap, err := store.Build(res, ds.Topology, store.IngestStats{Rounds: 1}, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		testSnapCache = snap
	}
	// Install a shallow copy so each test's store assigns its own epoch.
	snap := *testSnapCache
	st.Install(&snap)
	st.MarkSync(time.Now())
	return st
}

func testServer(t testing.TB, st *store.Store) *httptest.Server {
	t.Helper()
	srv, err := New(Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

// getJSON fetches url and decodes the body into v, returning the status.
func getJSON(t testing.TB, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s: content type %q", url, ct)
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("%s: bad JSON %q: %v", url, body, err)
		}
	}
	return resp.StatusCode
}

func TestHealthEndpoint(t *testing.T) {
	st := testStore(t)
	ts := testServer(t, st)
	var h healthResponse
	if code := getJSON(t, ts.URL+"/v1/health", &h); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if h.Status != "ok" || h.Epoch != 1 || h.Runs == 0 || h.Jobs == 0 {
		t.Fatalf("health: %+v", h)
	}
	if h.Version.GoVersion == "" {
		t.Error("health missing build info")
	}
	if len(h.Parse) != 3 {
		t.Fatalf("want 3 hygiene rows, got %d", len(h.Parse))
	}
	for i, want := range []string{"accounting", "apsys", "syslog"} {
		if h.Parse[i].Archive != want {
			t.Errorf("hygiene row %d: archive %q, want %q", i, h.Parse[i].Archive, want)
		}
		if h.Parse[i].Lines == 0 {
			t.Errorf("hygiene row %q: zero lines", want)
		}
	}
	if h.IngestLagSeconds < 0 {
		t.Errorf("negative ingest lag %g", h.IngestLagSeconds)
	}
	if h.Span == "" {
		t.Error("health missing span")
	}
}

func TestHealthBeforeFirstSnapshot(t *testing.T) {
	ts := testServer(t, store.New())
	var body map[string]any
	if code := getJSON(t, ts.URL+"/v1/health", &body); code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", code)
	}
	if body["status"] != "starting" {
		t.Errorf("body %v", body)
	}
	// Data endpoints also 503 before the first snapshot.
	var e errResponse
	if code := getJSON(t, ts.URL+"/v1/outcomes", &e); code != http.StatusServiceUnavailable {
		t.Fatalf("outcomes status %d, want 503", code)
	}
	if e.Error == "" {
		t.Error("503 without error body")
	}
}

func TestOutcomesEndpoint(t *testing.T) {
	st := testStore(t)
	ts := testServer(t, st)
	var o outcomesResponse
	if code := getJSON(t, ts.URL+"/v1/outcomes", &o); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if o.Epoch != 1 || o.TotalRuns == 0 {
		t.Fatalf("outcomes: %+v", o)
	}
	// One row per outcome, enumerated up to String's fallback (correlate's
	// TestOutcomeString pins that String names every member).
	i := 0
	for oc := correlate.OutcomeSuccess; !strings.HasPrefix(oc.String(), "OUTCOME("); oc, i = oc+1, i+1 {
		if i >= len(o.Outcomes) || o.Outcomes[i].Outcome != oc.String() {
			t.Errorf("outcome row %d is not %v", i, oc)
		}
	}
	if i != len(o.Outcomes) {
		t.Fatalf("want %d outcome rows, got %d", i, len(o.Outcomes))
	}
	var sum int
	for _, row := range o.Outcomes {
		sum += row.Runs
	}
	if sum != o.TotalRuns {
		t.Errorf("outcome rows sum to %d, total %d", sum, o.TotalRuns)
	}
	if o.SystemFailureFraction < 0 || o.SystemFailureFraction > 1 {
		t.Errorf("system failure fraction %g", o.SystemFailureFraction)
	}
}

func TestScalingEndpoint(t *testing.T) {
	st := testStore(t)
	ts := testServer(t, st)
	for _, class := range []string{"xe", "xk"} {
		var sc scalingResponse
		if code := getJSON(t, ts.URL+"/v1/scaling?class="+class, &sc); code != http.StatusOK {
			t.Fatalf("%s status %d", class, code)
		}
		if sc.Class != class || len(sc.Buckets) == 0 {
			t.Fatalf("%s: %+v", class, sc)
		}
		for _, b := range sc.Buckets {
			if b.Failures > b.Runs {
				t.Errorf("%s bucket %s: %d failures of %d runs", class, b.Label, b.Failures, b.Runs)
			}
			if b.Prob < 0 || b.Prob > 1 || b.ProbLo > b.Prob || b.ProbHi < b.Prob {
				if b.Runs > 0 {
					t.Errorf("%s bucket %s: inconsistent interval %g [%g,%g]", class, b.Label, b.Prob, b.ProbLo, b.ProbHi)
				}
			}
		}
	}
	// Default class is xe.
	var sc scalingResponse
	if code := getJSON(t, ts.URL+"/v1/scaling", &sc); code != http.StatusOK || sc.Class != "xe" {
		t.Fatalf("default class: %d %q", code, sc.Class)
	}
	// Unknown class is a 400.
	var e errResponse
	if code := getJSON(t, ts.URL+"/v1/scaling?class=zz", &e); code != http.StatusBadRequest {
		t.Fatalf("bad class status %d", code)
	}
	if !strings.Contains(e.Error, "zz") {
		t.Errorf("error %q does not name the bad class", e.Error)
	}
}

func TestMTTIEndpoint(t *testing.T) {
	st := testStore(t)
	ts := testServer(t, st)
	var m mttiResponse
	if code := getJSON(t, ts.URL+"/v1/mtti", &m); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if m.Epoch != 1 || len(m.Buckets) == 0 {
		t.Fatalf("mtti: %+v", m)
	}
	for _, b := range m.Buckets {
		if b.Interrupts > 0 && b.MTTIHours <= 0 {
			t.Errorf("bucket [%d,%d): %d interrupts but MTTI %g", b.Lo, b.Hi, b.Interrupts, b.MTTIHours)
		}
	}
}

func TestCategoriesEndpoint(t *testing.T) {
	st := testStore(t)
	ts := testServer(t, st)
	var c categoriesResponse
	if code := getJSON(t, ts.URL+"/v1/categories", &c); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if c.Epoch != 1 || len(c.Categories) == 0 {
		t.Fatalf("categories: %+v", c)
	}
	for i := 1; i < len(c.Categories); i++ {
		if c.Categories[i].Failures > c.Categories[i-1].Failures {
			t.Error("categories not sorted by descending failures")
		}
	}
}

func TestRunEndpoint(t *testing.T) {
	st := testStore(t)
	ts := testServer(t, st)
	want := st.Current().Result.Runs[0]
	var r runResponse
	url := fmt.Sprintf("%s/v1/runs/%d", ts.URL, want.ApID)
	if code := getJSON(t, url, &r); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if r.ApID != want.ApID || r.JobID != want.JobID || r.Nodes != want.NumNodes() {
		t.Fatalf("run: got %+v, want apid=%d job=%s nodes=%d", r, want.ApID, want.JobID, want.NumNodes())
	}
	if r.Outcome != want.Outcome.String() {
		t.Errorf("outcome %q, want %q", r.Outcome, want.Outcome)
	}
	// A system failure somewhere in the dataset must expose its evidence.
	var sysFail *correlate.AttributedRun
	for i := range st.Current().Result.Runs {
		rr := &st.Current().Result.Runs[i]
		if rr.Outcome == correlate.OutcomeSystemFailure && rr.HasEvidence {
			sysFail = rr
			break
		}
	}
	if sysFail == nil {
		t.Fatal("dataset has no system failure with evidence; cannot test drill-down")
	}
	var fr runResponse
	if code := getJSON(t, fmt.Sprintf("%s/v1/runs/%d", ts.URL, sysFail.ApID), &fr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if fr.Cause == "" || fr.Evidence == nil || fr.Evidence.Message == "" {
		t.Fatalf("system failure drill-down missing cause/evidence: %+v", fr)
	}

	// Unknown apid: 404. Malformed apid: 400.
	var e errResponse
	if code := getJSON(t, ts.URL+"/v1/runs/999999999", &e); code != http.StatusNotFound {
		t.Fatalf("unknown apid status %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/runs/notanumber", &e); code != http.StatusBadRequest {
		t.Fatalf("bad apid status %d", code)
	}
}

func TestMethodAndPathErrors(t *testing.T) {
	st := testStore(t)
	ts := testServer(t, st)
	resp, err := http.Post(ts.URL+"/v1/outcomes", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/nosuch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status %d, want 404", resp.StatusCode)
	}
}

func TestQueryLimit(t *testing.T) {
	st := testStore(t)
	ts := testServer(t, st)
	var e errResponse
	long := strings.Repeat("x", 2*DefaultMaxQueryBytes)
	if code := getJSON(t, ts.URL+"/v1/scaling?pad="+long, &e); code != http.StatusRequestURITooLong {
		t.Fatalf("oversized query status %d, want 414", code)
	}
}

// TestRequestTimeout wires a deliberately slow handler through the same
// route chain as the real endpoints and asserts the deadline converts it
// into the canonical 503, visible to the error counters.
func TestRequestTimeout(t *testing.T) {
	st := testStore(t)
	srv, err := New(Config{Store: st, RequestTimeout: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	srv.route("GET /v1/slow", "outcomes", func(w http.ResponseWriter, r *http.Request) {
		<-block
	})
	defer close(block)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/slow")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), "timed out") {
		t.Errorf("body %q", body)
	}
	if got := srv.prom.endpoints["outcomes"].errors.Load(); got != 1 {
		t.Errorf("error counter %d, want 1 (timeout must be observed)", got)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	st := testStore(t)
	ts := testServer(t, st)
	// Generate some traffic first so counters are nonzero.
	getJSON(t, ts.URL+"/v1/outcomes", nil)
	getJSON(t, ts.URL+"/v1/outcomes", nil)
	var e errResponse
	getJSON(t, ts.URL+"/v1/scaling?class=zz", &e)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		`logdiver_http_requests_total{endpoint="outcomes"} 2`,
		`logdiver_http_errors_total{endpoint="scaling"} 1`,
		`logdiver_http_request_duration_seconds_count{endpoint="outcomes"} 2`,
		"logdiver_snapshot_epoch 1",
		"logdiver_ingest_lag_seconds",
		"logdiver_snapshot_runs",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted nil store")
	}
}

// syntheticSnapshot builds a snapshot with exactly n runs; used by the race
// and consistency tests, where run count must be a pure function of epoch.
func syntheticSnapshot(t testing.TB, top *machine.Topology, n int) *store.Snapshot {
	t.Helper()
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	runs := make([]correlate.AttributedRun, n)
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
	res := &core.Result{Runs: runs, Agg: metrics.Fold(runs)}
	snap, err := store.Build(res, top, store.IngestStats{}, base)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}
