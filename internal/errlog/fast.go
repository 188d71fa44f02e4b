// Byte-oriented event construction for the ingestion hot path. The two
// helpers here remove the per-line allocations a string-per-event
// construction cannot avoid: HostCache memoizes host resolution (ParseCname
// and its error allocate on every service-host line otherwise), and
// EventBatch materializes retained message bodies in large batches — one
// string allocation per ~64 KiB of message text instead of one per event.

package errlog

import (
	"logdiver/internal/machine"
)

// hostCacheCap bounds the cache so adversarial archives with unbounded
// distinct host fields cannot grow it without limit; past the cap,
// resolution still works but is no longer memoized.
const hostCacheCap = 1 << 16

// HostCache memoizes host-field resolution: dense node ID (or SystemWide)
// plus the canonical host string. One cache serves one goroutine; the
// ingestion workers keep per-worker caches.
type HostCache struct {
	m map[string]hostEntry
}

type hostEntry struct {
	node  machine.NodeID
	cname string
}

// NewHostCache returns an empty cache.
func NewHostCache() *HostCache {
	return &HostCache{m: make(map[string]hostEntry, 64)}
}

// Resolve returns the node attribution and canonical string for a host
// field, with the semantics of an uncached Topology.LookupString: hosts
// that are not node cnames in the topology attribute to SystemWide. It allocates only the
// first time a distinct host is seen.
func (h *HostCache) Resolve(host []byte, top *machine.Topology) (machine.NodeID, string) {
	if e, ok := h.m[string(host)]; ok {
		return e.node, e.cname
	}
	s := string(host)
	node := SystemWide
	if id, err := top.LookupString(s); err == nil {
		node = id
	}
	if len(h.m) < hostCacheCap {
		h.m[s] = hostEntry{node: node, cname: s}
	}
	return node, s
}

// EventBatch accumulates classified events whose Message bodies are still
// byte views, materializing the retained strings in batches: message bytes
// are copied into an internal buffer and converted to per-event substrings
// of one backing string per flushBytes of text. Append does not retain msg
// beyond the call.
type EventBatch struct {
	events []Event
	buf    []byte
	marks  []batchMark
}

type batchMark struct {
	idx, off, n int
}

// flushBytes is the buffered message text that triggers an internal flush.
const flushBytes = 64 << 10

// Append adds one event whose Message is supplied as a byte view.
func (b *EventBatch) Append(e Event, msg []byte) {
	b.marks = append(b.marks, batchMark{idx: len(b.events), off: len(b.buf), n: len(msg)})
	b.events = append(b.events, e)
	b.buf = append(b.buf, msg...)
	if len(b.buf) >= flushBytes {
		b.flush()
	}
}

func (b *EventBatch) flush() {
	if len(b.marks) == 0 {
		return
	}
	s := string(b.buf)
	for _, m := range b.marks {
		b.events[m.idx].Message = s[m.off : m.off+m.n]
	}
	b.marks = b.marks[:0]
	b.buf = b.buf[:0]
}

// Finish materializes all pending messages and returns the accumulated
// events. The batch is reset and may be reused; the returned slice is not.
func (b *EventBatch) Finish() []Event {
	b.flush()
	out := b.events
	b.events = nil
	return out
}
