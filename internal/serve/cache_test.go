package serve

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"logdiver/internal/machine"
	"logdiver/internal/store"
)

// cacheablePaths are the snapshot-derived endpoints whose responses carry
// the epoch ETag; used by the conformance and differential suites.
var cacheablePaths = []string{
	"/v1/outcomes",
	"/v1/scaling?class=xe",
	"/v1/scaling?class=xk",
	"/v1/mtti",
	"/v1/categories",
	"/v1/runs",
	"/v1/runs?limit=7",
	"/v1/runs?limit=1000",
}

// get performs one request with optional extra headers against a Server
// directly (no network) and returns the recorder.
func get(t testing.TB, srv *Server, path string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

func newTestServer(t testing.TB, st *store.Store, cfg Config) *Server {
	t.Helper()
	cfg.Store = st
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestCachingConformance is the HTTP caching semantics suite: ETag
// stability within an epoch, empty-body 304s on If-None-Match hits,
// invalidation on epoch advance, Vary, and gzip round-trip integrity.
func TestCachingConformance(t *testing.T) {
	st := testStore(t)
	srv := newTestServer(t, st, Config{})

	for _, path := range cacheablePaths {
		t.Run(path, func(t *testing.T) {
			// Two plain requests within one epoch: identical ETags and
			// bodies, full caching headers.
			r1 := get(t, srv, path, nil)
			r2 := get(t, srv, path, nil)
			if r1.Code != 200 || r2.Code != 200 {
				t.Fatalf("status %d / %d", r1.Code, r2.Code)
			}
			etag := r1.Header().Get("ETag")
			if etag == "" || etag != `"1"` {
				t.Fatalf("ETag %q, want %q", etag, `"1"`)
			}
			if got := r2.Header().Get("ETag"); got != etag {
				t.Fatalf("ETag changed within an epoch: %q then %q", etag, got)
			}
			if !bytes.Equal(r1.Body.Bytes(), r2.Body.Bytes()) {
				t.Fatal("body changed within an epoch")
			}
			if cc := r1.Header().Get("Cache-Control"); cc != cacheControl {
				t.Errorf("Cache-Control %q, want %q", cc, cacheControl)
			}
			if v := r1.Header().Get("Vary"); v != "Accept-Encoding" {
				t.Errorf("Vary %q, want Accept-Encoding", v)
			}

			// Conditional hit: 304 with an EMPTY body, ETag retained.
			r3 := get(t, srv, path, map[string]string{"If-None-Match": etag})
			if r3.Code != http.StatusNotModified {
				t.Fatalf("If-None-Match hit: status %d, want 304", r3.Code)
			}
			if r3.Body.Len() != 0 {
				t.Fatalf("304 carried %d body bytes", r3.Body.Len())
			}
			if got := r3.Header().Get("ETag"); got != etag {
				t.Errorf("304 ETag %q, want %q", got, etag)
			}

			// Weak-form and list-form If-None-Match also hit.
			for _, inm := range []string{"W/" + etag, `"0", ` + etag, "*"} {
				if rc := get(t, srv, path, map[string]string{"If-None-Match": inm}); rc.Code != 304 {
					t.Errorf("If-None-Match %q: status %d, want 304", inm, rc.Code)
				}
			}
			// A stale tag misses.
			if rc := get(t, srv, path, map[string]string{"If-None-Match": `"999"`}); rc.Code != 200 {
				t.Errorf("stale If-None-Match: status %d, want 200", rc.Code)
			}

			// gzip negotiation: correctly labeled, round-trips to the
			// identity bytes. Dynamic (non-default) /v1/runs pages stream
			// uncompressed by design; their page bound keeps them small.
			rz := get(t, srv, path, map[string]string{"Accept-Encoding": "gzip"})
			if rz.Code != 200 {
				t.Fatalf("gzip status %d", rz.Code)
			}
			if ce := rz.Header().Get("Content-Encoding"); ce != "gzip" {
				if strings.Contains(path, "limit=") {
					if ce != "" {
						t.Fatalf("dynamic page Content-Encoding %q, want identity", ce)
					}
					if !bytes.Equal(rz.Body.Bytes(), r1.Body.Bytes()) {
						t.Fatal("dynamic page body changed under Accept-Encoding")
					}
					return
				}
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
			if rz.Body.Len() >= r1.Body.Len() {
				t.Errorf("gzip body (%d B) not smaller than identity (%d B)", rz.Body.Len(), r1.Body.Len())
			}
			// Explicit refusal is honoured.
			rn := get(t, srv, path, map[string]string{"Accept-Encoding": "gzip;q=0"})
			if ce := rn.Header().Get("Content-Encoding"); ce != "" {
				t.Errorf("gzip;q=0 got Content-Encoding %q", ce)
			}
		})
	}

	// Epoch advance invalidates: new ETag, fresh body, and a conditional
	// request bearing the OLD tag gets the new full response, not a 304.
	old := get(t, srv, "/v1/outcomes", nil)
	snap := *st.Current()
	st.Install(&snap) // same data, next epoch
	r := get(t, srv, "/v1/outcomes", map[string]string{"If-None-Match": old.Header().Get("ETag")})
	if r.Code != 200 {
		t.Fatalf("stale conditional after epoch advance: status %d, want 200", r.Code)
	}
	if got := r.Header().Get("ETag"); got != `"2"` {
		t.Fatalf("post-advance ETag %q, want %q", got, `"2"`)
	}
	if bytes.Contains(r.Body.Bytes(), []byte(`"epoch": 1`)) || bytes.Contains(r.Body.Bytes(), []byte(`"epoch":1`)) {
		t.Fatal("post-advance body still reports epoch 1")
	}
}

// TestCachedBytesDifferential pins the cache's invariant: every cached
// view's bytes, identity and gzip, are exactly a direct render of the
// handler's snapshot (renderView, gzipBytes) on both the plain and the
// /v1/fleet/ path — at epoch N, and again at epoch N+1 after an install.
func TestCachedBytesDifferential(t *testing.T) {
	st := testStore(t)
	srv := newTestServer(t, st, Config{})
	paths := map[string]viewID{
		"outcomes": viewOutcomes, "scaling?class=xe": viewScalingXE, "scaling?class=xk": viewScalingXK,
		"mtti": viewMTTI, "categories": viewCategories, "runs": viewRunsFirst,
	}
	check := func(epochLabel string) {
		t.Helper()
		snap := st.Current()
		for name, view := range paths {
			for _, fleet := range []bool{false, true} {
				path := "/v1/" + name
				if fleet {
					if view == viewRunsFirst {
						continue // /v1/runs has no fleet family
					}
					path = "/v1/fleet/" + name
				}
				want := renderView(view, snap, fleet)
				c := get(t, srv, path, nil)
				if c.Code != 200 || !bytes.Equal(c.Body.Bytes(), want) {
					t.Errorf("%s %s: status %d, cached body (%d bytes) is not the direct render (%d bytes)",
						epochLabel, path, c.Code, c.Body.Len(), len(want))
				}
				if tag, wantTag := c.Header().Get("ETag"), fmt.Sprintf(`"%d"`, snap.Epoch); tag != wantTag {
					t.Errorf("%s %s: ETag %q, want %q", epochLabel, path, tag, wantTag)
				}
				cz := get(t, srv, path, map[string]string{"Accept-Encoding": "gzip"})
				if !bytes.Equal(cz.Body.Bytes(), gzipBytes(want)) {
					t.Errorf("%s %s: cached gzip body is not gzipBytes of the direct render", epochLabel, path)
				}
			}
		}
	}

	check("epoch N")
	snap := *st.Current()
	st.Install(&snap)
	check("epoch N+1")
}

// TestETagMatch pins the If-None-Match comparison including weak tags,
// lists, wildcard, and misses.
func TestETagMatch(t *testing.T) {
	tests := []struct {
		header, etag string
		want         bool
	}{
		{"", `"3"`, false},
		{`"3"`, `"3"`, true},
		{`"4"`, `"3"`, false},
		{"*", `"3"`, true},
		{`W/"3"`, `"3"`, true},
		{`"1", "2", "3"`, `"3"`, true},
		{`"1", W/"3"`, `"3"`, true},
		{`"1", "2"`, `"3"`, false},
		{` "3" `, `"3"`, true},
	}
	for _, tc := range tests {
		if got := etagMatch(tc.header, tc.etag); got != tc.want {
			t.Errorf("etagMatch(%q, %q) = %v, want %v", tc.header, tc.etag, got, tc.want)
		}
	}
}

// TestAcceptsGzip pins the Accept-Encoding negotiation.
func TestAcceptsGzip(t *testing.T) {
	tests := []struct {
		ae   string
		want bool
	}{
		{"", false},
		{"gzip", true},
		{"gzip, deflate", true},
		{"deflate, gzip;q=0.5", true},
		{"gzip;q=0", false},
		{"gzip;q=0.0", false},
		{"deflate", false},
		{"*", true},
		{"identity", false},
		{"GZIP", false}, // content codings are case-insensitive in RFCs, but we only ever see canonical lowercase from real clients
	}
	for _, tc := range tests {
		req := httptest.NewRequest("GET", "/", nil)
		if tc.ae != "" {
			req.Header.Set("Accept-Encoding", tc.ae)
		}
		if got := acceptsGzip(req); got != tc.want {
			t.Errorf("acceptsGzip(%q) = %v, want %v", tc.ae, got, tc.want)
		}
	}
}

// TestCacheForMonotonic exercises the publication CAS: caches for older
// snapshots never displace a published newer one, and every caller gets a
// cache bound to ITS snapshot regardless of publication outcome.
func TestCacheForMonotonic(t *testing.T) {
	top, err := machine.New(machine.Small())
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	srv := newTestServer(t, st, Config{})
	s1 := syntheticSnapshot(t, top, 1)
	s2 := syntheticSnapshot(t, top, 2)
	st.Install(s1)
	st.Install(s2) // epochs 1 and 2

	c2 := srv.cacheFor(s2)
	if c2.snap != s2 {
		t.Fatal("cacheFor(s2) bound to wrong snapshot")
	}
	c1 := srv.cacheFor(s1)
	if c1.snap != s1 {
		t.Fatal("cacheFor(s1) bound to wrong snapshot")
	}
	// The published cache must still be the newer epoch's.
	if got := srv.cache.Load(); got != c2 {
		t.Fatalf("published cache epoch %d, want %d", got.snap.Epoch, c2.snap.Epoch)
	}
	// And s2 requests keep getting the published one.
	if again := srv.cacheFor(s2); again != c2 {
		t.Fatal("cacheFor(s2) rebuilt despite published cache")
	}
}
