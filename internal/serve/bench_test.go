package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"logdiver/internal/raceflag"
)

// benchWriter is a minimal resettable ResponseWriter: the benchmark loop
// must not allocate per iteration, or the recorder would dominate the
// near-zero-alloc cached serve path it is measuring.
type benchWriter struct {
	h    http.Header
	code int
	n    int64
}

func (w *benchWriter) Header() http.Header { return w.h }

func (w *benchWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *benchWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.n += int64(len(b))
	return len(b), nil
}

func (w *benchWriter) reset() {
	clear(w.h)
	w.code = 0
	w.n = 0
}

// serveCase is one handler-direct request shape, shared by the benchmark
// and the allocation ceilings below.
type serveCase struct {
	name, path string
	gzip       bool // send Accept-Encoding: gzip
	revalidate bool // send If-None-Match with the warm ETag; answers 304
	nextPage   bool // request the page after the first: path's next_cursor
	// maxAllocs bounds one warm request (measured value in the trailing
	// comment). The ceilings are what keeps the cached paths cached: a
	// regression that re-renders or re-encodes per request multiplies them.
	maxAllocs float64
}

var serveCases = []serveCase{
	{name: "health", path: "/v1/health", maxAllocs: 25},                            // 20
	{name: "outcomes", path: "/v1/outcomes", maxAllocs: 10},                        // 6
	{name: "scaling", path: "/v1/scaling?class=xe", maxAllocs: 14},                 // 9
	{name: "mtti", path: "/v1/mtti", maxAllocs: 10},                                // 6
	{name: "categories", path: "/v1/categories", maxAllocs: 10},                    // 6
	{name: "runs", path: "/v1/runs/%d", maxAllocs: 22},                             // 17
	{name: "runs_list", path: "/v1/runs", maxAllocs: 12},                           // 7
	{name: "runs_page", path: "/v1/runs?limit=200", nextPage: true, maxAllocs: 18}, // 11
	{name: "metrics", path: "/metrics", maxAllocs: 150},                            // 109
	{name: "gzip", path: "/v1/outcomes", gzip: true, maxAllocs: 12},                // 8
	{name: "not_modified", path: "/v1/outcomes", revalidate: true, maxAllocs: 8},   // 4
}

// serveFixture is a server over the realistic test snapshot.
func serveFixture(t testing.TB) *Server {
	t.Helper()
	srv, err := New(Config{Store: testStore(t)})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// replayer sends the case once through a real recorder — checking the
// status, filling the view cache — and returns a function that replays the
// request into a resettable writer, plus the size of the warm body. The
// %d of the drill-down path is the first run's apid.
func (c serveCase) replayer(t testing.TB, srv *Server) (replay func(), size int) {
	t.Helper()
	path := c.path
	if strings.Contains(path, "%d") {
		path = fmt.Sprintf(path, srv.cfg.Store.Current().Result.Runs[0].ApID)
	}
	if c.nextPage {
		var first runsPageBody
		if err := json.Unmarshal(get(t, srv, path, nil).Body.Bytes(), &first); err != nil || first.NextCursor == "" {
			t.Fatalf("%s: no next_cursor to follow (err %v)", path, err)
		}
		path += "&cursor=" + first.NextCursor
	}
	newReq := func() *http.Request {
		req := httptest.NewRequest("GET", path, nil)
		if c.gzip {
			req.Header.Set("Accept-Encoding", "gzip")
		}
		return req
	}
	warm := httptest.NewRecorder()
	srv.ServeHTTP(warm, newReq())
	if warm.Code != 200 || (c.gzip && warm.Header().Get("Content-Encoding") != "gzip") {
		t.Fatalf("%s: warm status %d encoding %q", path, warm.Code, warm.Header().Get("Content-Encoding"))
	}
	req, want := newReq(), 200
	if c.revalidate {
		req.Header.Set("If-None-Match", warm.Header().Get("ETag"))
		want = http.StatusNotModified
	}
	w := &benchWriter{h: make(http.Header, 8)}
	return func() {
		w.reset()
		srv.ServeHTTP(w, req)
		if w.code != want {
			t.Fatalf("%s: status %d, want %d", path, w.code, want)
		}
	}, warm.Body.Len()
}

// BenchmarkServeQueries measures per-endpoint request cost against a
// realistic snapshot, handler-direct (no network), one goroutine. SetBytes
// reports response bytes on the wire (compressed for gzip, none for the
// 304), so the go-bench MB/s column is real serving throughput. bench/
// gates the wall time end to end (query_rps, serve.query_p50_us/p99_us).
func BenchmarkServeQueries(b *testing.B) {
	srv := serveFixture(b)
	for _, c := range serveCases {
		b.Run(c.name, func(b *testing.B) {
			replay, size := c.replayer(b, srv)
			if !c.revalidate {
				b.SetBytes(int64(size))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				replay()
			}
		})
	}
}

// TestServeAllocCeilings holds every served path to its allocation budget.
func TestServeAllocCeilings(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	srv := serveFixture(t)
	for _, c := range serveCases {
		replay, _ := c.replayer(t, srv)
		if n := testing.AllocsPerRun(100, replay); n > c.maxAllocs {
			t.Errorf("%s: %.0f allocs/op, ceiling %.0f", c.name, n, c.maxAllocs)
		}
	}
}
