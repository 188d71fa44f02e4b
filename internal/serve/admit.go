package serve

import (
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Admission control. Two independent bounds protect the data endpoints
// from overload, both shedding FAST — a rejected request costs a counter
// bump and a small JSON error, never a queue slot:
//
//   - a per-client token bucket (RateLimit req/s, a burst of ⌈2×RateLimit⌉)
//     answers 429 Too Many Requests with Retry-After when one client
//     out-asks its share;
//   - a global in-flight bound (MaxInFlight) answers 503 Service
//     Unavailable with Retry-After: 1 when the server as a whole is at its
//     concurrency limit, regardless of who is asking.
//
// Shedding instead of queueing keeps latency for admitted requests flat at
// saturation: beyond capacity the excess gets an immediate, honest "come
// back later" rather than a slot in a collapsing queue. /v1/health and
// /metrics are exempt — they are the probes an operator needs most when the
// server is busy shedding.

// Admission bounds.
const (
	// DefaultMaxClients bounds the rate limiter's per-client tracking map.
	DefaultMaxClients = 10000
	// shedRetryAfter is the Retry-After hint, in seconds, on 503
	// concurrency sheds.
	shedRetryAfter = "1"
)

// clientLimiter is a per-client token-bucket rate limiter. The map of
// buckets is bounded: when full, fully idle clients (refilled buckets) are
// swept; if every tracked client is active, NEW clients are admitted
// untracked (fail open) — under a flood of distinct client addresses the
// in-flight bound is the backstop, and forgetting an idle bucket can never
// admit more than one extra burst.
type clientLimiter struct {
	rate  float64 // tokens added per second
	burst float64 // bucket capacity
	max   int     // tracked-client bound
	now   func() time.Time

	mu      sync.Mutex
	clients map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newClientLimiter(rate float64, burst, maxClients int, now func() time.Time) *clientLimiter {
	if burst < 1 {
		burst = 1
	}
	return &clientLimiter{
		rate:    rate,
		burst:   float64(burst),
		max:     maxClients,
		now:     now,
		clients: make(map[string]*bucket),
	}
}

// allow takes one token from key's bucket. When the bucket is empty it
// returns false and the whole seconds to wait until a token accrues — the
// Retry-After value.
func (l *clientLimiter) allow(key string) (ok bool, retryAfter int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b := l.clients[key]
	if b == nil {
		if len(l.clients) >= l.max {
			l.sweep(now)
		}
		if len(l.clients) >= l.max {
			return true, 0 // fail open, untracked
		}
		b = &bucket{tokens: l.burst, last: now}
		l.clients[key] = b
	}
	b.tokens = min(l.burst, b.tokens+now.Sub(b.last).Seconds()*l.rate)
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	return false, int(math.Ceil((1 - b.tokens) / l.rate))
}

// sweep drops buckets that have fully refilled: their clients have been
// idle long enough that forgetting them changes nothing they could do.
func (l *clientLimiter) sweep(now time.Time) {
	for k, b := range l.clients {
		if b.tokens+now.Sub(b.last).Seconds()*l.rate >= l.burst {
			delete(l.clients, k)
		}
	}
}

// tracked returns the number of tracked clients (for tests and metrics).
func (l *clientLimiter) tracked() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.clients)
}

// clientKey identifies the requesting client for rate limiting: the host
// part of RemoteAddr. Slicing, not net.SplitHostPort, because the common
// "ip:port" form needs no allocation on the hot path.
func clientKey(r *http.Request) string {
	addr := r.RemoteAddr
	if i := strings.LastIndexByte(addr, ':'); i >= 0 {
		return addr[:i]
	}
	return addr
}

// admit runs the admission pipeline for one data-endpoint request. It
// returns false after writing the shed response (429 or 503, both with
// Retry-After). On true the caller owes one release().
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	if s.limiter != nil {
		if ok, retry := s.limiter.allow(clientKey(r)); !ok {
			s.prom.shedRateLimit.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(retry))
			s.writeErr(w, http.StatusTooManyRequests, "client rate limit exceeded")
			return false
		}
	}
	if s.cfg.MaxInFlight > 0 {
		// Take a slot by compare-and-swap, not add-then-undo, so the gauge
		// (exported on /metrics) never reads above the bound.
		for {
			n := s.inFlight.Load()
			if n >= int64(s.cfg.MaxInFlight) {
				s.prom.shedInFlight.Add(1)
				w.Header().Set("Retry-After", shedRetryAfter)
				s.writeErr(w, http.StatusServiceUnavailable, "server at concurrency limit")
				return false
			}
			if s.inFlight.CompareAndSwap(n, n+1) {
				break
			}
		}
	}
	s.prom.admitted.Add(1)
	return true
}

// release returns the in-flight slot admit took.
func (s *Server) release() {
	if s.cfg.MaxInFlight > 0 {
		s.inFlight.Add(-1)
	}
}
