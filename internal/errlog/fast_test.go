package errlog

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"logdiver/internal/machine"
)

// TestHostCacheResolveMatchesLookup pins cached resolution to the
// uncached topology lookup: node cnames resolve to their
// dense IDs, everything else attributes to SystemWide, and a second
// Resolve of the same host returns identical results.
func TestHostCacheResolveMatchesLookup(t *testing.T) {
	top, err := machine.New(machine.Small())
	if err != nil {
		t.Fatal(err)
	}
	cache := NewHostCache()
	hosts := []string{
		"c0-0c0s0n0", "c0-0c0s0n1", "c0-0c1s2n3",
		"sdb", "nid00012", "boot001", "", "c99-9c9s9n9", "not a cname",
	}
	for _, h := range hosts {
		wantNode := SystemWide
		if id, lerr := top.LookupString(h); lerr == nil {
			wantNode = id
		}
		for pass := 0; pass < 2; pass++ {
			node, cname := cache.Resolve([]byte(h), top)
			if node != wantNode || cname != h {
				t.Errorf("Resolve(%q) pass %d = (%v, %q), want (%v, %q)", h, pass, node, cname, wantNode, h)
			}
		}
	}
}

// TestHostCacheResolveZeroAllocWarm gates the steady-state path: once a
// host is cached, resolving it again must not allocate.
func TestHostCacheResolveZeroAllocWarm(t *testing.T) {
	top, err := machine.New(machine.Small())
	if err != nil {
		t.Fatal(err)
	}
	cache := NewHostCache()
	host := []byte("c0-0c0s0n1")
	cache.Resolve(host, top) // warm
	if n := testing.AllocsPerRun(200, func() {
		cache.Resolve(host, top)
	}); n != 0 {
		t.Errorf("warm Resolve allocates %.1f allocs/op, want 0", n)
	}
}

// TestEventBatchRoundTrip checks that Append/Finish preserve event order
// and attach exactly the appended message bytes, across the internal
// 64 KiB flush boundary, and that a finished batch is reusable.
func TestEventBatchRoundTrip(t *testing.T) {
	var b EventBatch
	// Big messages force several internal flushes; small ones ride along.
	big := strings.Repeat("x", 20<<10)
	var want []string
	for i := 0; i < 16; i++ {
		msg := fmt.Sprintf("event %d: %s", i, big[:1+(i*4096)%len(big)])
		want = append(want, msg)
		b.Append(Event{Time: time.Unix(int64(i), 0).UTC(), Node: SystemWide, Cname: "sdb"}, []byte(msg))
	}
	events := b.Finish()
	if len(events) != len(want) {
		t.Fatalf("Finish returned %d events, want %d", len(events), len(want))
	}
	for i, e := range events {
		if e.Message != want[i] {
			t.Errorf("event %d message length %d, want length %d", i, len(e.Message), len(want[i]))
		}
		if !e.Time.Equal(time.Unix(int64(i), 0).UTC()) {
			t.Errorf("event %d time = %v", i, e.Time)
		}
	}

	// Reuse after Finish: a second fill must not disturb the first result.
	b.Append(Event{Cname: "second"}, []byte("after reuse"))
	second := b.Finish()
	if len(second) != 1 || second[0].Message != "after reuse" {
		t.Fatalf("reused batch = %+v", second)
	}
	if events[0].Message != want[0] {
		t.Error("reusing the batch mutated previously returned events")
	}
}

// TestEventBatchDoesNotRetainMsg verifies Append copies the message view:
// mutating the caller's buffer after Append must not change the batch.
func TestEventBatchDoesNotRetainMsg(t *testing.T) {
	var b EventBatch
	buf := []byte("original body")
	b.Append(Event{}, buf)
	for i := range buf {
		buf[i] = '!'
	}
	events := b.Finish()
	if events[0].Message != "original body" {
		t.Errorf("batch retained caller buffer: message = %q", events[0].Message)
	}
}
