package serve

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"logdiver/internal/store"
	"logdiver/internal/whatif"
)

// post performs one POST /v1/whatif with optional body and headers against
// a Server directly (no network) and returns the recorder.
func post(t testing.TB, srv *Server, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest("POST", path, rd)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

const testPolicyConfig = `
[policy daly]
checkpoint = daly
checkpoint-cost = 7m
restart-cost = 12m
retry-limit = 2
retry-backoff = 5m

[policy detect]
detect-fraction = 0.8
`

// whatifETagRe is the documented entity-tag shape: the snapshot epoch plus
// a 64-bit request hash.
var whatifETagRe = regexp.MustCompile(`^"(\d+)-[0-9a-f]{16}"$`)

func TestWhatifEndpoint(t *testing.T) {
	st := testStore(t)
	srv := newTestServer(t, st, Config{})

	r1 := post(t, srv, "/v1/whatif?seed=3", testPolicyConfig, nil)
	if r1.Code != http.StatusOK {
		t.Fatalf("status %d: %s", r1.Code, r1.Body.String())
	}
	etag := r1.Header().Get("ETag")
	m := whatifETagRe.FindStringSubmatch(etag)
	if m == nil {
		t.Fatalf("ETag %q does not match epoch-hash form", etag)
	}
	if m[1] != "1" {
		t.Fatalf("ETag epoch %s, want 1", m[1])
	}
	if cc := r1.Header().Get("Cache-Control"); cc != cacheControl {
		t.Errorf("Cache-Control %q, want %q", cc, cacheControl)
	}
	if v := r1.Header().Get("Vary"); v != "Accept-Encoding" {
		t.Errorf("Vary %q, want Accept-Encoding", v)
	}

	var resp struct {
		Epoch    uint64 `json:"epoch"`
		Seed     int64  `json:"seed"`
		Runs     int    `json:"runs"`
		Policies []struct {
			Name string `json:"name"`
		} `json:"policies"`
	}
	if err := json.Unmarshal(r1.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Epoch != 1 || resp.Seed != 3 || resp.Runs == 0 {
		t.Fatalf("response envelope: %+v", resp)
	}
	if len(resp.Policies) != 2 || resp.Policies[0].Name != "daly" || resp.Policies[1].Name != "detect" {
		t.Fatalf("policies: %+v", resp.Policies)
	}

	// Same request again: identical bytes and ETag (served from cache).
	r2 := post(t, srv, "/v1/whatif?seed=3", testPolicyConfig, nil)
	if !bytes.Equal(r1.Body.Bytes(), r2.Body.Bytes()) {
		t.Fatal("repeat request changed body within an epoch")
	}
	if r2.Header().Get("ETag") != etag {
		t.Fatal("repeat request changed ETag within an epoch")
	}

	// Conditional revalidation: 304, empty body.
	r3 := post(t, srv, "/v1/whatif?seed=3", testPolicyConfig, map[string]string{"If-None-Match": etag})
	if r3.Code != http.StatusNotModified {
		t.Fatalf("If-None-Match hit: status %d, want 304", r3.Code)
	}
	if r3.Body.Len() != 0 {
		t.Fatalf("304 carried %d body bytes", r3.Body.Len())
	}

	// Different seed and different policies each get their own ETag.
	otherSeed := post(t, srv, "/v1/whatif?seed=4", testPolicyConfig, nil)
	if otherSeed.Header().Get("ETag") == etag {
		t.Error("different seed shares the ETag")
	}
	otherPolicy := post(t, srv, "/v1/whatif?seed=3", "[policy detect]\ndetect-fraction = 0.8\n", nil)
	if otherPolicy.Header().Get("ETag") == etag {
		t.Error("different policies share the ETag")
	}

	// Canonicalization: a differently-spelled but semantically identical
	// config shares the cache entry, byte for byte.
	respelled := strings.ReplaceAll(testPolicyConfig, "7m", "420s")
	respelled = "; a comment\n" + respelled
	r4 := post(t, srv, "/v1/whatif?seed=3", respelled, nil)
	if r4.Header().Get("ETag") != etag {
		t.Errorf("respelled config ETag %q, want %q", r4.Header().Get("ETag"), etag)
	}
	if !bytes.Equal(r4.Body.Bytes(), r1.Body.Bytes()) {
		t.Error("respelled config body differs")
	}

	// Empty body simulates the default policy set.
	rd := post(t, srv, "/v1/whatif", "", nil)
	if rd.Code != http.StatusOK {
		t.Fatalf("default policies: status %d: %s", rd.Code, rd.Body.String())
	}
	var def struct {
		Policies []struct {
			Name string `json:"name"`
		} `json:"policies"`
	}
	if err := json.Unmarshal(rd.Body.Bytes(), &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Policies) != len(whatif.DefaultPolicies()) {
		t.Fatalf("default policy count %d, want %d", len(def.Policies), len(whatif.DefaultPolicies()))
	}

	// gzip negotiation round-trips to the identity bytes.
	rz := post(t, srv, "/v1/whatif?seed=3", testPolicyConfig, map[string]string{"Accept-Encoding": "gzip"})
	if ce := rz.Header().Get("Content-Encoding"); ce != "gzip" {
		t.Fatalf("Content-Encoding %q, want gzip", ce)
	}
	zr, err := gzip.NewReader(bytes.NewReader(rz.Body.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, r1.Body.Bytes()) {
		t.Fatal("gzip round-trip differs from identity body")
	}
}

func TestWhatifErrors(t *testing.T) {
	st := testStore(t)
	srv := newTestServer(t, st, Config{})

	// Malformed policy config: 400 with a parse error.
	r := post(t, srv, "/v1/whatif", "[policy x]\ncheckpoint = sometimes\n", nil)
	if r.Code != http.StatusBadRequest {
		t.Fatalf("bad policy: status %d", r.Code)
	}
	var e errResponse
	if err := json.Unmarshal(r.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "sometimes") {
		t.Fatalf("bad policy error body %q (%v)", r.Body.String(), err)
	}

	// Invalid policy (parses, fails validation): also 400.
	r = post(t, srv, "/v1/whatif", "[policy x]\ncheckpoint = fixed\n", nil)
	if r.Code != http.StatusBadRequest {
		t.Fatalf("invalid policy: status %d", r.Code)
	}

	// Bad seed: 400 naming the value.
	r = post(t, srv, "/v1/whatif?seed=banana", testPolicyConfig, nil)
	if r.Code != http.StatusBadRequest {
		t.Fatalf("bad seed: status %d", r.Code)
	}
	if err := json.Unmarshal(r.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "banana") {
		t.Fatalf("bad seed error body %q (%v)", r.Body.String(), err)
	}

	// Oversized body: 413 from the MaxBytesReader guard.
	big := strings.Repeat("# padding\n", 2*DefaultMaxBodyBytes/10)
	r = post(t, srv, "/v1/whatif", big, nil)
	if r.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", r.Code)
	}

	// GET is not allowed.
	g := get(t, srv, "/v1/whatif", nil)
	if g.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", g.Code)
	}
}

// TestWhatifCachedBytesDifferential pins that the per-epoch report cache
// never changes response bytes: a cached report, identity and gzip, is
// exactly whatif.Simulate over the handler's snapshot in the serving
// envelope — at epoch N and after an epoch advance.
func TestWhatifCachedBytesDifferential(t *testing.T) {
	st := testStore(t)
	srv := newTestServer(t, st, Config{})
	policies, err := whatif.ParsePolicies(testPolicyConfig)
	if err != nil {
		t.Fatal(err)
	}

	check := func(label string) {
		t.Helper()
		snap := st.Current()
		for _, seed := range []int64{1, 2} {
			path := fmt.Sprintf("/v1/whatif?seed=%d", seed)
			rep, err := whatif.Simulate(whatif.Input{Runs: snap.Result.Runs, MTTI: snap.MTTI}, policies, whatif.Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			want := encodeJSON(whatifResponse{Epoch: snap.Epoch, Partial: snap.Partial, Report: rep})
			// Twice: the render that fills the cache, then the cached bytes.
			for _, pass := range []string{"first", "repeat"} {
				c := post(t, srv, path, testPolicyConfig, nil)
				if c.Code != 200 || !bytes.Equal(c.Body.Bytes(), want) {
					t.Errorf("%s seed %d %s: status %d, body is not the direct simulation", label, seed, pass, c.Code)
				}
				cz := post(t, srv, path, testPolicyConfig, map[string]string{"Accept-Encoding": "gzip"})
				if !bytes.Equal(cz.Body.Bytes(), gzipBytes(want)) {
					t.Errorf("%s seed %d %s: gzip body is not gzipBytes of the direct simulation", label, seed, pass)
				}
			}
		}
	}

	check("epoch N")
	old := post(t, srv, "/v1/whatif?seed=1", testPolicyConfig, nil)
	snap := *st.Current()
	st.Install(&snap) // same data, next epoch
	check("epoch N+1")

	// The old epoch's tag no longer validates and the new tag carries the
	// new epoch.
	r := post(t, srv, "/v1/whatif?seed=1", testPolicyConfig,
		map[string]string{"If-None-Match": old.Header().Get("ETag")})
	if r.Code != 200 {
		t.Fatalf("stale conditional after epoch advance: status %d, want 200", r.Code)
	}
	m := whatifETagRe.FindStringSubmatch(r.Header().Get("ETag"))
	if m == nil || m[1] != "2" {
		t.Fatalf("post-advance ETag %q, want epoch 2", r.Header().Get("ETag"))
	}
}

// TestWhatifCacheCapacity fills the per-epoch report cache past its bound
// and checks overflow requests are still answered correctly, just without
// caching, that the render counter reflects the uncached work, and that
// every 200 counts as served: served - renders is exactly the cache hits.
func TestWhatifCacheCapacity(t *testing.T) {
	st := testStore(t)
	srv := newTestServer(t, st, Config{})
	hits := func(want int64) {
		t.Helper()
		served, renders := int64(srv.prom.whatifServed.Load()), int64(srv.prom.whatifRenders.Load())
		if served-renders != want {
			t.Errorf("served %d - renders %d = %d, want %d cache hits", served, renders, served-renders, want)
		}
	}

	// Fill the cache with distinct seeds.
	for i := 0; i < whatifCacheMax; i++ {
		r := post(t, srv, fmt.Sprintf("/v1/whatif?seed=%d", i+1), "", nil)
		if r.Code != 200 {
			t.Fatalf("seed %d: status %d", i+1, r.Code)
		}
	}
	renders := srv.prom.whatifRenders.Load()
	if renders != whatifCacheMax {
		t.Fatalf("renders %d, want %d", renders, whatifCacheMax)
	}
	hits(0)

	// Overflow request: still 200, rendered uncached, and repeatable.
	over1 := post(t, srv, "/v1/whatif?seed=999", "", nil)
	over2 := post(t, srv, "/v1/whatif?seed=999", "", nil)
	if over1.Code != 200 || over2.Code != 200 {
		t.Fatalf("overflow status %d / %d", over1.Code, over2.Code)
	}
	if !bytes.Equal(over1.Body.Bytes(), over2.Body.Bytes()) {
		t.Fatal("overflow responses differ across renders")
	}
	if got := srv.prom.whatifRenders.Load(); got != renders+2 {
		t.Errorf("overflow renders %d, want %d (each overflow request re-renders)", got, renders+2)
	}
	hits(0)

	// Cached entries still serve from cache (no new renders).
	before := srv.prom.whatifRenders.Load()
	if r := post(t, srv, "/v1/whatif?seed=1", "", nil); r.Code != 200 {
		t.Fatalf("cached re-read status %d", r.Code)
	}
	if got := srv.prom.whatifRenders.Load(); got != before {
		t.Errorf("cached re-read rendered again (%d -> %d)", before, got)
	}
	hits(1)

	// Epoch advance resets capacity.
	snap := *st.Current()
	st.Install(&snap)
	if r := post(t, srv, "/v1/whatif?seed=999", "", nil); r.Code != 200 {
		t.Fatalf("post-advance status %d", r.Code)
	}
	hits(1)
}

// TestWhatifFleetMergedView checks /v1/whatif in fleet mode simulates over
// the merged snapshot and carries the partial flag when a shard degrades.
func TestWhatifFleetMergedView(t *testing.T) {
	mgr, ts, root := testFleetServer(t)
	v := mgr.View()

	postURL := func() (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/whatif", "text/plain", strings.NewReader(testPolicyConfig))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	code, body := postURL()
	if code != http.StatusOK {
		t.Fatalf("fleet whatif status %d: %s", code, body)
	}
	var resp struct {
		Epoch   uint64 `json:"epoch"`
		Partial bool   `json:"partial"`
		Runs    int    `json:"runs"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	var shardRuns int
	for _, sh := range v.Shards {
		shardRuns += sh.Runs
	}
	if resp.Runs != shardRuns {
		t.Fatalf("simulated %d runs, want fleet total %d", resp.Runs, shardRuns)
	}
	if resp.Partial {
		t.Fatal("healthy fleet whatif reported partial")
	}

	// Degrade one shard: the report stays available, flagged partial.
	syslog := filepath.Join(root, v.Shards[1].Name, store.SyslogFile)
	if err := os.Remove(syslog); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(syslog, 0o755); err != nil {
		t.Fatal(err)
	}
	mgr.SyncRound(t.Context())

	code, body = postURL()
	if code != http.StatusOK {
		t.Fatalf("degraded fleet whatif status %d", code)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Partial {
		t.Fatal("degraded fleet whatif not marked partial")
	}
}

// TestWhatifMetricsExposed checks the new counters appear on /metrics.
func TestWhatifMetricsExposed(t *testing.T) {
	st := testStore(t)
	srv := newTestServer(t, st, Config{})
	post(t, srv, "/v1/whatif", "", nil)
	post(t, srv, "/v1/whatif", "", nil)

	r := get(t, srv, "/metrics", nil)
	if r.Code != 200 {
		t.Fatalf("metrics status %d", r.Code)
	}
	text := r.Body.String()
	for _, want := range []string{
		"logdiver_whatif_renders_total 1",
		"logdiver_whatif_served_total 2",
		`logdiver_http_requests_total{endpoint="whatif"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
