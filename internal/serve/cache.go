package serve

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"logdiver/internal/store"
)

// Response caching. Snapshots are immutable and epoch-versioned, so every
// cacheable view is a pure function of the snapshot pointer: render it once
// per epoch into pre-encoded bytes (identity and gzip), then serve those
// bytes to every request until the epoch advances. The cache is keyed by
// snapshot POINTER, not epoch number: a handler that loaded snapshot S can
// only ever be handed bytes rendered from S, so a concurrent epoch swap can
// never serve stale or mixed-epoch responses.

// viewID enumerates the cacheable views. Each is rendered at most once per
// epoch.
type viewID int

const (
	viewOutcomes viewID = iota
	viewScalingXE
	viewScalingXK
	viewMTTI
	viewCategories
	// viewRunsFirst is the default page of /v1/runs (no cursor, default
	// limit) — the page every fresh traversal starts from. Other pages are
	// rendered per request; they are bounded and comparatively rare.
	viewRunsFirst
	numViews
	// numAggViews counts the aggregate views, which come first: the rows of
	// aggViews.
	numAggViews = viewRunsFirst
)

// renderView renders one cacheable view from snap. fleet selects the
// /v1/fleet/ rendering of an aggregate view: the same body plus the fleet
// object carrying snap's epoch vector.
func renderView(view viewID, snap *store.Snapshot, fleet bool) []byte {
	if view == viewRunsFirst {
		return renderRunsFirst(snap)
	}
	var fm *fleetMeta
	if fleet {
		fm = &fleetMeta{Partial: snap.Partial, Shards: snap.EpochVector()}
	}
	return encodeJSON(aggViews[view].body(snap, fm))
}

// cacheControl is sent on every snapshot-derived response: any cache may
// store it, but must revalidate with If-None-Match before reuse. Within an
// epoch the revalidation is a 304 with no body; across epochs it refreshes.
const cacheControl = "public, no-cache"

// cachedView is one view's rendered representations. The contentLength
// strings are precomputed so the steady-state serve path allocates nothing.
type cachedView struct {
	once    sync.Once
	body    []byte // identity representation
	gz      []byte // gzip representation of body
	bodyLen string
	gzLen   string
}

// viewCaches holds every cacheable view rendered from exactly one snapshot.
type viewCaches struct {
	snap *store.Snapshot
	etag string
	// views holds each view's plain rendering at [0] and its /v1/fleet/
	// rendering at [1], both from the same snapshot pointer.
	views [numViews][2]cachedView
	// whatif caches POST /v1/whatif reports, which are keyed by request
	// material rather than a fixed view ID; see whatif.go.
	whatif whatifCache
}

func newViewCaches(snap *store.Snapshot) *viewCaches {
	return &viewCaches{
		snap: snap,
		etag: `"` + strconv.FormatUint(snap.Epoch, 10) + `"`,
	}
}

// fill renders and compresses the view on first use. renders counts
// first-time renders for /metrics.
func (cv *cachedView) fill(render func() []byte, renders *atomic.Uint64) {
	cv.once.Do(func() {
		cv.body = render()
		cv.gz = gzipBytes(cv.body)
		cv.bodyLen = strconv.Itoa(len(cv.body))
		cv.gzLen = strconv.Itoa(len(cv.gz))
		renders.Add(1)
	})
}

// write sends the representation the request negotiated.
func (cv *cachedView) write(w http.ResponseWriter, r *http.Request) {
	h := w.Header()
	if acceptsGzip(r) {
		h.Set("Content-Encoding", "gzip")
		h.Set("Content-Length", cv.gzLen)
		_, _ = w.Write(cv.gz)
		return
	}
	h.Set("Content-Length", cv.bodyLen)
	_, _ = w.Write(cv.body)
}

// writeEncoded sends a body rendered for this one request, compressing it
// when the request allows.
func writeEncoded(w http.ResponseWriter, r *http.Request, body []byte) {
	h := w.Header()
	if acceptsGzip(r) {
		body = gzipBytes(body)
		h.Set("Content-Encoding", "gzip")
	}
	h.Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

// gzipBytes compresses b at BestSpeed. The output is deterministic for a
// given input (no timestamp is written), which the cache differential tests
// rely on.
func gzipBytes(b []byte) []byte {
	var buf bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	_, _ = zw.Write(b)
	_ = zw.Close()
	return buf.Bytes()
}

// cacheFor returns the view cache bound to snap, creating it on an epoch
// advance. Publication is best-effort monotonic: a lost race leaves some
// requests rendering from a private cache, never serving wrong bytes.
func (s *Server) cacheFor(snap *store.Snapshot) *viewCaches {
	if c := s.cache.Load(); c != nil && c.snap == snap {
		return c
	}
	c := newViewCaches(snap)
	for {
		cur := s.cache.Load()
		if cur != nil && cur.snap.Epoch >= snap.Epoch {
			// A newer (or concurrent same-epoch) cache is already
			// published; serve this request from the private cache bound
			// to OUR snapshot.
			if cur.snap == snap {
				return cur
			}
			return c
		}
		if s.cache.CompareAndSwap(cur, c) {
			return c
		}
	}
}

// encodeJSON renders v exactly as writeJSON does: two-space indent and a
// trailing newline. Cached bytes and direct responses share this encoding,
// which is what makes them byte-identical.
func encodeJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	return buf.Bytes()
}

// etagMatch reports whether the If-None-Match header value matches etag,
// per RFC 7232 weak comparison: a wildcard or any listed entity-tag whose
// opaque part equals ours. The single-tag fast path avoids parsing.
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	if header == etag || header == "*" {
		return true
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == etag || part == "*" {
			return true
		}
	}
	return false
}

// acceptsGzip reports whether the request allows a gzip response. Tokens
// are matched properly so "gzip;q=0" refuses and "*" accepts.
func acceptsGzip(r *http.Request) bool {
	ae := r.Header.Get("Accept-Encoding")
	if ae == "" {
		return false
	}
	for _, part := range strings.Split(ae, ",") {
		part = strings.TrimSpace(part)
		name, params, _ := strings.Cut(part, ";")
		name = strings.TrimSpace(name)
		if name != "gzip" && name != "*" {
			continue
		}
		q := strings.TrimSpace(params)
		if q, ok := strings.CutPrefix(q, "q="); ok {
			if v, err := strconv.ParseFloat(strings.TrimSpace(q), 64); err == nil && v == 0 {
				return false
			}
		}
		return true
	}
	return false
}

// etagFor is the entity tag of every response derived from snap,
// precomputed in the snapshot's view cache.
func (s *Server) etagFor(snap *store.Snapshot) string { return s.cacheFor(snap).etag }

// notModified sets the validators every snapshot-derived response carries
// and reports whether it answered the request with an empty 304.
func (s *Server) notModified(w http.ResponseWriter, r *http.Request, etag string) bool {
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Cache-Control", cacheControl)
	h.Set("Vary", "Accept-Encoding")
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		s.prom.notModified.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	h.Set("Content-Type", "application/json")
	return false
}

// serveView answers one cacheable endpoint from the handler's snapshot:
// conditional 304 first, then pre-encoded cached bytes (with negotiated
// gzip).
func (s *Server) serveView(w http.ResponseWriter, r *http.Request, snap *store.Snapshot, view viewID, fleet bool) {
	c := s.cacheFor(snap)
	if s.notModified(w, r, c.etag) {
		return
	}
	cv := &c.views[view][0]
	if fleet {
		cv = &c.views[view][1]
	}
	cv.fill(func() []byte { return renderView(view, snap, fleet) }, &s.prom.cacheRenders)
	s.prom.cacheServed.Add(1)
	cv.write(w, r)
}
