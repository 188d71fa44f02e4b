package serve

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is an injectable clock for the rate-limiter tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// TestClientLimiter pins the token-bucket mechanics: burst capacity, refill
// rate, and the Retry-After computation, all against an injected clock.
func TestClientLimiter(t *testing.T) {
	clk := newFakeClock()
	l := newClientLimiter(1, 3, DefaultMaxClients, clk.Now)

	// The full burst is available immediately; the next request is denied
	// with a one-second wait (rate 1/s, zero tokens).
	for i := 0; i < 3; i++ {
		if ok, _ := l.allow("a"); !ok {
			t.Fatalf("burst request %d denied", i)
		}
	}
	ok, retry := l.allow("a")
	if ok || retry != 1 {
		t.Fatalf("after burst: ok=%v retry=%d, want denied retry=1", ok, retry)
	}

	// Half a second refills half a token: still denied, still a 1s hint
	// (Retry-After rounds up).
	clk.Advance(500 * time.Millisecond)
	if ok, retry := l.allow("a"); ok || retry != 1 {
		t.Fatalf("at +0.5s: ok=%v retry=%d, want denied retry=1", ok, retry)
	}
	// A full second from the denial, one token has accrued.
	clk.Advance(500 * time.Millisecond)
	if ok, _ := l.allow("a"); !ok {
		t.Fatal("token not refilled after 1s")
	}

	// Clients are independent: b still has its whole burst.
	for i := 0; i < 3; i++ {
		if ok, _ := l.allow("b"); !ok {
			t.Fatalf("client b request %d denied", i)
		}
	}

	// Refill never exceeds the burst capacity.
	clk.Advance(time.Hour)
	for i := 0; i < 3; i++ {
		if ok, _ := l.allow("a"); !ok {
			t.Fatalf("post-idle burst request %d denied", i)
		}
	}
	if ok, _ := l.allow("a"); ok {
		t.Fatal("burst capacity exceeded after long idle")
	}
}

// TestClientLimiterRetryAfterScales checks the wait hint reflects the
// configured rate: at 0.2 req/s an empty bucket needs 5 seconds.
func TestClientLimiterRetryAfterScales(t *testing.T) {
	clk := newFakeClock()
	l := newClientLimiter(0.2, 1, DefaultMaxClients, clk.Now)
	if ok, _ := l.allow("a"); !ok {
		t.Fatal("first request denied")
	}
	if ok, retry := l.allow("a"); ok || retry != 5 {
		t.Fatalf("ok=%v retry=%d, want denied retry=5", ok, retry)
	}
}

// TestClientLimiterBound pins the bounded-map behavior: idle clients are
// swept to make room, and when every tracked client is active the limiter
// fails open rather than blocking new clients or growing without bound.
func TestClientLimiterBound(t *testing.T) {
	clk := newFakeClock()
	l := newClientLimiter(1, 2, 2, clk.Now)

	l.allow("a")
	l.allow("b")
	if got := l.tracked(); got != 2 {
		t.Fatalf("tracked %d, want 2", got)
	}

	// Map full, both clients active (not refilled): c is admitted untracked.
	if ok, _ := l.allow("c"); !ok {
		t.Fatal("fail-open admission denied")
	}
	if got := l.tracked(); got != 2 {
		t.Fatalf("tracked %d after fail-open, want 2", got)
	}

	// Once a and b have fully refilled, the sweep reclaims their slots and c
	// gets tracked like anyone else.
	clk.Advance(10 * time.Second)
	if ok, _ := l.allow("c"); !ok {
		t.Fatal("post-sweep admission denied")
	}
	if got := l.tracked(); got != 1 {
		t.Fatalf("tracked %d after sweep, want 1 (just c)", got)
	}
}

func TestClientKey(t *testing.T) {
	tests := []struct{ addr, want string }{
		{"192.0.2.1:1234", "192.0.2.1"},
		{"[::1]:8080", "[::1]"},
		{"bare-host", "bare-host"},
	}
	for _, tc := range tests {
		r := httptest.NewRequest("GET", "/", nil)
		r.RemoteAddr = tc.addr
		if got := clientKey(r); got != tc.want {
			t.Errorf("clientKey(%q) = %q, want %q", tc.addr, got, tc.want)
		}
	}
}

// TestRateLimitHTTP drives the limiter through the full request path: 429
// with Retry-After once the bucket drains, recovery as the clock advances,
// exemption for health and metrics, and shed counters matching observed
// responses.
func TestRateLimitHTTP(t *testing.T) {
	clk := newFakeClock()
	st := testStore(t)
	srv := newTestServer(t, st, Config{RateLimit: 1, Now: clk.Now})

	// The derived burst, ⌈2×1⌉, admits two; the third is shed.
	for i := 0; i < 2; i++ {
		if rec := get(t, srv, "/v1/outcomes", nil); rec.Code != 200 {
			t.Fatalf("burst request %d: status %d", i, rec.Code)
		}
	}
	rec := get(t, srv, "/v1/outcomes", nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-rate status %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After %q, want \"1\"", ra)
	}
	if !strings.Contains(rec.Body.String(), "rate limit") {
		t.Errorf("429 body %q does not explain itself", rec.Body.String())
	}

	// Health and metrics stay reachable while the client is being shed.
	if rec := get(t, srv, "/v1/health", nil); rec.Code != 200 {
		t.Errorf("health shed during rate limiting: status %d", rec.Code)
	}
	if rec := get(t, srv, "/metrics", nil); rec.Code != 200 {
		t.Errorf("metrics shed during rate limiting: status %d", rec.Code)
	}

	// One second later a token has accrued.
	clk.Advance(time.Second)
	if rec := get(t, srv, "/v1/outcomes", nil); rec.Code != 200 {
		t.Fatalf("post-refill status %d", rec.Code)
	}

	// A different client address has its own bucket.
	req := httptest.NewRequest("GET", "/v1/outcomes", nil)
	req.RemoteAddr = "198.51.100.7:4242"
	other := httptest.NewRecorder()
	srv.ServeHTTP(other, req)
	if other.Code != 200 {
		t.Fatalf("second client status %d", other.Code)
	}

	if got := srv.prom.shedRateLimit.Load(); got != 1 {
		t.Errorf("shedRateLimit %d, want 1", got)
	}
	if got := srv.prom.admitted.Load(); got != 4 {
		t.Errorf("admitted %d, want 4", got)
	}
}

// TestMaxInFlightBound proves the concurrency bound is exact: with
// MaxInFlight=2, two requests parked inside a handler hold the server at
// capacity, the third is shed immediately with 503 + Retry-After: 1, and
// after the parked requests finish the server admits again.
func TestMaxInFlightBound(t *testing.T) {
	st := testStore(t)
	srv := newTestServer(t, st, Config{MaxInFlight: 2})

	entered := make(chan struct{}, 4)
	unblock := make(chan struct{})
	srv.routeFast("GET /v1/block", "outcomes", func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-unblock
		w.WriteHeader(200)
	})

	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := get(t, srv, "/v1/block", nil)
			codes[i] = rec.Code
		}(i)
	}
	// Both are inside the handler: the server is exactly at capacity.
	<-entered
	<-entered

	rec := get(t, srv, "/v1/block", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity status %d, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After %q, want \"1\"", ra)
	}
	if !strings.Contains(rec.Body.String(), "concurrency") {
		t.Errorf("503 body %q does not explain itself", rec.Body.String())
	}

	close(unblock)
	wg.Wait()
	for i, c := range codes {
		if c != 200 {
			t.Errorf("parked request %d: status %d, want 200", i, c)
		}
	}
	// Capacity is back.
	if rec := get(t, srv, "/v1/outcomes", nil); rec.Code != 200 {
		t.Errorf("post-drain status %d, want 200", rec.Code)
	}
	if got := srv.prom.shedInFlight.Load(); got != 1 {
		t.Errorf("shedInFlight %d, want 1", got)
	}
	if got := srv.prom.admitted.Load(); got != 3 {
		t.Errorf("admitted %d, want 3", got)
	}
	if got := srv.inFlight.Load(); got != 0 {
		t.Errorf("inFlight %d after drain, want 0", got)
	}
}

// TestSaturation hammers a MaxInFlight-bounded server far beyond capacity
// from many goroutines (run under -race in CI). Invariants: every response
// is a clean 200 or an immediate 503 with Retry-After, the in-flight gauge
// never exceeds the bound, and admitted + shed exactly accounts for every
// request.
func TestSaturation(t *testing.T) {
	const (
		maxInFlight = 2
		workers     = 16
		perWorker   = 50
	)
	st := testStore(t)
	srv := newTestServer(t, st, Config{MaxInFlight: maxInFlight})

	var (
		ok200, shed503, other atomic.Int64
		overBound             atomic.Int64
		stop                  atomic.Bool
	)
	// An observer polls the in-flight gauge the whole time; any reading
	// above the bound is a broken invariant.
	var obsWG sync.WaitGroup
	obsWG.Add(1)
	go func() {
		defer obsWG.Done()
		for !stop.Load() {
			if n := srv.inFlight.Load(); n > maxInFlight {
				overBound.Add(1)
			}
		}
	}()

	paths := []string{"/v1/outcomes", "/v1/mtti", "/v1/categories", "/v1/runs", "/v1/scaling?class=xe"}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				req := httptest.NewRequest("GET", paths[(g+i)%len(paths)], nil)
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, req)
				switch rec.Code {
				case 200:
					ok200.Add(1)
				case http.StatusServiceUnavailable:
					shed503.Add(1)
					if rec.Header().Get("Retry-After") == "" {
						other.Add(1) // a shed without a hint counts as broken
					}
				default:
					other.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	stop.Store(true)
	obsWG.Wait()

	total := int64(workers * perWorker)
	if ok200.Load()+shed503.Load() != total || other.Load() != 0 {
		t.Fatalf("responses: %d ok, %d shed, %d other, want %d total with 0 other",
			ok200.Load(), shed503.Load(), other.Load(), total)
	}
	if ok200.Load() == 0 {
		t.Fatal("saturation starved every request; admitted none")
	}
	if overBound.Load() != 0 {
		t.Fatalf("in-flight gauge observed above bound %d times", overBound.Load())
	}
	if got := srv.prom.admitted.Load(); got != uint64(ok200.Load()) {
		t.Errorf("admitted counter %d, want %d", got, ok200.Load())
	}
	if got := srv.prom.shedInFlight.Load(); got != uint64(shed503.Load()) {
		t.Errorf("shedInFlight counter %d, want %d", got, shed503.Load())
	}
	if got := srv.inFlight.Load(); got != 0 {
		t.Errorf("inFlight %d after run, want 0", got)
	}
}

// TestGracefulDrain proves an admitted in-flight request completes during
// shutdown: the listener stops accepting, but the parked request drains to a
// clean 200 before Serve returns.
func TestGracefulDrain(t *testing.T) {
	st := testStore(t)
	srv := newTestServer(t, st, Config{MaxInFlight: 4})

	entered := make(chan struct{})
	unblock := make(chan struct{})
	srv.routeFast("GET /v1/block", "outcomes", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-unblock
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, `{"drained":true}`)
	})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ctx, l, 10*time.Second) }()

	type result struct {
		code int
		body string
		err  error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + l.Addr().String() + "/v1/block")
		if err != nil {
			resc <- result{err: err}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		resc <- result{code: resp.StatusCode, body: string(body)}
	}()

	<-entered // the request is in flight
	cancel()  // shutdown begins; it must wait for the parked request
	time.Sleep(50 * time.Millisecond)
	select {
	case err := <-serveErr:
		t.Fatalf("Serve returned before the in-flight request drained: %v", err)
	default:
	}
	close(unblock)

	res := <-resc
	if res.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", res.err)
	}
	if res.code != 200 || !strings.Contains(res.body, "drained") {
		t.Fatalf("drained request: status %d body %q", res.code, res.body)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestAdmissionMetricsExposition cross-checks the Prometheus counters a
// scrape reports against the responses the client actually observed.
func TestAdmissionMetricsExposition(t *testing.T) {
	clk := newFakeClock()
	st := testStore(t)
	srv := newTestServer(t, st, Config{RateLimit: 2, Now: clk.Now})

	var got200, got429, got304 int
	etag := ""
	for i := 0; i < 6; i++ {
		hdr := map[string]string(nil)
		if etag != "" {
			hdr = map[string]string{"If-None-Match": etag}
		}
		rec := get(t, srv, "/v1/outcomes", hdr)
		switch rec.Code {
		case 200:
			got200++
			etag = rec.Header().Get("ETag")
		case 304:
			got304++
		case 429:
			got429++
		default:
			t.Fatalf("request %d: unexpected status %d", i, rec.Code)
		}
	}
	if got429 == 0 {
		t.Fatal("test generated no rate-limit sheds; counters unexercised")
	}

	rec := get(t, srv, "/metrics", nil)
	text := rec.Body.String()
	counter := func(name string) int {
		re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`)
		m := re.FindStringSubmatch(text)
		if m == nil {
			t.Fatalf("metrics missing %q:\n%s", name, text)
		}
		n, _ := strconv.Atoi(m[1])
		return n
	}
	if got := counter("logdiver_http_admitted_total"); got != got200+got304 {
		t.Errorf("admitted_total %d, want %d (200s+304s)", got, got200+got304)
	}
	if got := counter(`logdiver_http_shed_total{reason="rate_limit"}`); got != got429 {
		t.Errorf("shed_total{rate_limit} %d, want %d", got, got429)
	}
	if got := counter(`logdiver_http_shed_total{reason="inflight"}`); got != 0 {
		t.Errorf("shed_total{inflight} %d, want 0", got)
	}
	if got := counter("logdiver_http_not_modified_total"); got != got304 {
		t.Errorf("not_modified_total %d, want %d", got, got304)
	}
	if got := counter("logdiver_cache_served_total"); got != got200 {
		t.Errorf("cache_served_total %d, want %d (full responses)", got, got200)
	}
	if counter("logdiver_cache_renders_total") < 1 {
		t.Error("cache_renders_total zero despite cached serves")
	}
}
