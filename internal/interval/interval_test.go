package interval

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"logdiver/internal/errlog"
	"logdiver/internal/machine"
	"logdiver/internal/taxonomy"
)

var base = time.Date(2013, 4, 3, 0, 0, 0, 0, time.UTC)

func ev(node int, offset time.Duration, cat taxonomy.Category) errlog.Event {
	return errlog.Event{
		Time:     base.Add(offset),
		Node:     machine.NodeID(node),
		Category: cat,
		Severity: taxonomy.SevCritical,
	}
}

func sysEv(offset time.Duration, cat taxonomy.Category) errlog.Event {
	e := ev(0, offset, cat)
	e.Node = errlog.SystemWide
	return e
}

func TestIndexCounts(t *testing.T) {
	events := []errlog.Event{
		ev(1, time.Minute, taxonomy.HardwareMemoryUE),
		ev(1, 2*time.Minute, taxonomy.HardwareMemoryCE),
		ev(2, time.Hour, taxonomy.NodeHeartbeat),
		sysEv(30*time.Minute, taxonomy.FilesystemLBUG),
	}
	ix := NewIndex(events)
	if ix.Len() != 4 {
		t.Errorf("Len = %d, want 4", ix.Len())
	}
	if ix.Nodes() != 2 {
		t.Errorf("Nodes = %d, want 2", ix.Nodes())
	}
}

func TestNodeWindowBoundsInclusive(t *testing.T) {
	events := []errlog.Event{
		ev(5, 10*time.Minute, taxonomy.NodeHeartbeat),
		ev(5, 20*time.Minute, taxonomy.NodeHeartbeat),
		ev(5, 30*time.Minute, taxonomy.NodeHeartbeat),
	}
	ix := NewIndex(events)
	node5 := []machine.NodeID{5}
	got := ix.Window(node5, base.Add(10*time.Minute), base.Add(30*time.Minute))
	if len(got) != 3 {
		t.Errorf("inclusive window returned %d events, want 3", len(got))
	}
	got = ix.Window(node5, base.Add(11*time.Minute), base.Add(29*time.Minute))
	if len(got) != 1 {
		t.Errorf("interior window returned %d events, want 1", len(got))
	}
	got = ix.Window(node5, base.Add(31*time.Minute), base.Add(time.Hour))
	if len(got) != 0 {
		t.Errorf("empty window returned %d events", len(got))
	}
	if got := ix.Window([]machine.NodeID{99}, base, base.Add(time.Hour)); len(got) != 0 {
		t.Errorf("unknown node returned %d events", len(got))
	}
}

func TestWindowMergesNodeAndSystem(t *testing.T) {
	events := []errlog.Event{
		ev(1, 10*time.Minute, taxonomy.HardwareMemoryUE),
		ev(2, 20*time.Minute, taxonomy.NodeHeartbeat),
		ev(3, 15*time.Minute, taxonomy.GPUMemoryDBE), // not in node set
		sysEv(5*time.Minute, taxonomy.InterconnectRouting),
		sysEv(2*time.Hour, taxonomy.FilesystemLBUG), // out of window
	}
	ix := NewIndex(events)
	got := ix.Window([]machine.NodeID{1, 2}, base, base.Add(time.Hour))
	if len(got) != 3 {
		t.Fatalf("Window returned %d events, want 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Time.Before(got[i-1].Time) {
			t.Error("Window result not time-ordered")
		}
	}
	if got[0].Category != taxonomy.InterconnectRouting {
		t.Errorf("first event %v, want system-wide routing event", got[0].Category)
	}
}

func TestFirstInWindowPicksEarliest(t *testing.T) {
	events := []errlog.Event{
		ev(1, 40*time.Minute, taxonomy.HardwareMemoryUE),
		ev(2, 10*time.Minute, taxonomy.NodeHeartbeat),
		sysEv(25*time.Minute, taxonomy.FilesystemLBUG),
	}
	ix := NewIndex(events)
	got, ok := ix.FirstInWindow([]machine.NodeID{1, 2}, base, base.Add(time.Hour),
		func(errlog.Event) bool { return true })
	if !ok {
		t.Fatal("found nothing")
	}
	if got.Category != taxonomy.NodeHeartbeat {
		t.Errorf("earliest = %v, want NodeHeartbeat", got.Category)
	}
	// With a filter that excludes the heartbeat, the system event wins.
	got, ok = ix.FirstInWindow([]machine.NodeID{1, 2}, base, base.Add(time.Hour),
		func(e errlog.Event) bool { return e.Category != taxonomy.NodeHeartbeat })
	if !ok || got.Category != taxonomy.FilesystemLBUG {
		t.Errorf("filtered earliest = %v ok=%v, want FilesystemLBUG", got.Category, ok)
	}
}

func TestFirstInWindowEmpty(t *testing.T) {
	ix := NewIndex(nil)
	if _, ok := ix.FirstInWindow([]machine.NodeID{1}, base, base.Add(time.Hour),
		func(errlog.Event) bool { return true }); ok {
		t.Error("empty index returned an event")
	}
}

// TestWindowAgainstBruteForce cross-checks the index against a straight
// linear scan on randomized inputs.
func TestWindowAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const nEvents = 3000
	events := make([]errlog.Event, 0, nEvents)
	for i := 0; i < nEvents; i++ {
		node := rng.Intn(40)
		e := ev(node, time.Duration(rng.Intn(100000))*time.Second, taxonomy.NodeHeartbeat)
		if rng.Intn(20) == 0 {
			e.Node = errlog.SystemWide
		}
		events = append(events, e)
	}
	ix := NewIndex(events)

	for trial := 0; trial < 50; trial++ {
		nodeSet := map[machine.NodeID]bool{}
		var nodes []machine.NodeID
		for len(nodes) < 5 {
			n := machine.NodeID(rng.Intn(40))
			if !nodeSet[n] {
				nodeSet[n] = true
				nodes = append(nodes, n)
			}
		}
		from := base.Add(time.Duration(rng.Intn(50000)) * time.Second)
		to := from.Add(time.Duration(rng.Intn(50000)) * time.Second)

		var want int
		for _, e := range events {
			in := !e.Time.Before(from) && !e.Time.After(to)
			if in && (e.Node == errlog.SystemWide || nodeSet[e.Node]) {
				want++
			}
		}
		got := ix.Window(nodes, from, to)
		if len(got) != want {
			t.Fatalf("trial %d: Window returned %d events, brute force %d", trial, len(got), want)
		}
	}
}

// TestEvidenceAmongSameInstantEventsIsFirstInInputOrder: when several
// matching events on a node carry the same timestamp, the one a search
// returns is the first in the index's input order — for the pipeline, dedup
// order — and an index over a suffix of the stream returns the same one as
// the index over all of it. Sorting by time alone with an unstable sort used
// to leave that to the sort's whims.
func TestEvidenceAmongSameInstantEventsIsFirstInInputOrder(t *testing.T) {
	var events []errlog.Event
	for i := 0; i < 30; i++ { // an older stretch the suffix index leaves out
		events = append(events, ev(7, time.Duration(i)*time.Second, taxonomy.HardwareMemoryCE))
	}
	cut := len(events)
	const burst = 40 // enough that pdqsort would not leave ties alone
	cats := []taxonomy.Category{taxonomy.NodeHeartbeat, taxonomy.KernelPanic, taxonomy.HardwareMemoryUE, taxonomy.FilesystemLBUG}
	for i := 0; i < burst; i++ {
		e := ev(7, time.Hour, cats[i%len(cats)])
		e.Message = string(rune('a' + i))
		events = append(events, e)
		s := sysEv(time.Hour, cats[i%len(cats)])
		s.Message = string(rune('a' + i))
		events = append(events, s)
	}
	events = append(events, ev(7, 2*time.Hour, taxonomy.NodeHeartbeat))
	firstNode, firstSys := events[cut], events[cut+1]

	keep := func(e errlog.Event) bool { return e.Category != taxonomy.HardwareMemoryCE }
	from, to := base.Add(30*time.Minute), base.Add(90*time.Minute)
	for name, ix := range map[string]*Index{"full": NewIndex(events), "suffix": NewIndex(events[cut:])} {
		if got, ok := ix.FirstInWindow([]machine.NodeID{7}, from, to, keep); !ok || got != firstNode {
			t.Errorf("%s index: node evidence %+v, want the first same-instant event %+v", name, got, firstNode)
		}
		if got, ok := ix.FirstInWindow([]machine.NodeID{8}, from, to, keep); !ok || got != firstSys {
			t.Errorf("%s index: system-wide evidence %+v, want %+v", name, got, firstSys)
		}
		if got, ok := ix.FirstAnywhere(from, to, keep); !ok || got != firstNode {
			t.Errorf("%s index: temporal-only evidence %+v, want %+v", name, got, firstNode)
		}
	}

	// Unsorted input takes the stable-sort path: ties keep input order there
	// too.
	rev := append(slices.Clone(events[cut:]), events[:cut]...)
	if got, ok := NewIndex(rev).FirstInWindow([]machine.NodeID{7}, from, to, keep); !ok || got != firstNode {
		t.Errorf("unsorted input: evidence %+v, want %+v", got, firstNode)
	}
}
