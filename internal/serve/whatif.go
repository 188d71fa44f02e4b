package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"logdiver/internal/store"
	"logdiver/internal/whatif"
)

// POST /v1/whatif — counterfactual resilience simulation over the current
// snapshot. The body is a policy config (whatif.ParsePolicies format;
// empty body = the default policy set), ?seed=N selects the replication
// seed. A report is a pure function of (snapshot, policies, seed), so
// results cache per snapshot epoch exactly like the GET views: the entity
// tag is "<epoch>-<request hash>" and revalidation within an epoch is a
// bodyless 304. The snapshot is the merged fleet view, so the simulation is
// automatically fleet-wide (the `partial` flag carries through when a shard
// is degraded).

// whatifCacheMax bounds how many distinct (policies, seed) reports are
// cached per epoch. Overflow requests are still answered — rendered
// directly, just not cached.
const whatifCacheMax = 64

// whatifCache is the per-epoch dynamic report cache hung off viewCaches.
// Unlike the fixed view array it is keyed by request material, so it needs
// a lock; entries are pre-encoded cachedViews like every other view.
type whatifCache struct {
	mu      sync.Mutex
	entries map[string]*cachedView
}

// view returns the cached report for key, rendering it on first use.
// full=false means the cache is at capacity and the caller must render
// uncached.
func (c *whatifCache) view(key string, render func() []byte, renders *atomic.Uint64) (*cachedView, bool) {
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[string]*cachedView)
	}
	cv, ok := c.entries[key]
	if !ok {
		if len(c.entries) >= whatifCacheMax {
			c.mu.Unlock()
			return nil, false
		}
		cv = &cachedView{}
		c.entries[key] = cv
	}
	c.mu.Unlock()
	cv.fill(render, renders)
	return cv, true
}

// whatifResponse wraps the simulation report with the serving envelope.
type whatifResponse struct {
	Epoch uint64 `json:"epoch"`
	// Partial is set when the merged snapshot is missing a failed shard's
	// fresh data (degraded-but-serving).
	Partial bool `json:"partial,omitempty"`
	*whatif.Report
}

// whatifKey is the exact cache key: canonical policy rendering plus seed.
// Canonicalization (via PoliciesString) makes differently-spelled configs
// with identical semantics share a cache entry.
func whatifKey(spec string, seed int64) string {
	return strconv.FormatInt(seed, 10) + "\n" + spec
}

// whatifETag derives the entity tag: the snapshot epoch plus a hash of the
// request material, so distinct requests validate independently while all
// of them expire together when the epoch advances.
func whatifETag(snap *store.Snapshot, key string) string {
	h := fnv.New64a()
	_, _ = io.WriteString(h, key)
	return fmt.Sprintf("\"%d-%016x\"", snap.Epoch, h.Sum64())
}

func (s *Server) handleWhatif(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshot(w)
	if !ok {
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("policy config exceeds %d bytes", tooLarge.Limit))
			return
		}
		s.writeErr(w, http.StatusBadRequest, "reading request body: "+err.Error())
		return
	}
	var policies []whatif.Policy
	if strings.TrimSpace(string(body)) == "" {
		policies = whatif.DefaultPolicies()
	} else {
		policies, err = whatif.ParsePolicies(string(body))
		if err != nil {
			s.writeErr(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	seed := int64(1)
	if q := r.URL.Query().Get("seed"); q != "" {
		seed, err = strconv.ParseInt(q, 10, 64)
		if err != nil {
			s.writeErr(w, http.StatusBadRequest, fmt.Sprintf("bad seed %q", q))
			return
		}
	}

	spec := whatif.PoliciesString(policies)
	key := whatifKey(spec, seed)
	if s.notModified(w, r, whatifETag(snap, key)) {
		return
	}

	render := func() []byte {
		rep, err := whatif.Simulate(whatif.Input{Runs: snap.Result.Runs, MTTI: snap.MTTI}, policies, whatif.Options{Seed: seed})
		if err != nil {
			// Policies were validated at parse; this is unreachable, but a
			// JSON error body beats a panic if an invariant ever breaks.
			return encodeJSON(errResponse{Error: err.Error()})
		}
		return encodeJSON(whatifResponse{Epoch: snap.Epoch, Partial: snap.Partial, Report: rep})
	}

	s.prom.whatifServed.Add(1)
	if cv, ok := s.cacheFor(snap).whatif.view(key, render, &s.prom.whatifRenders); ok {
		cv.write(w, r)
		return
	}
	s.prom.whatifRenders.Add(1)
	writeEncoded(w, r, render())
}
