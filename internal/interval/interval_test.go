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

// nodes is the placement of the given node IDs.
func nodes(ids ...machine.NodeID) machine.Placement { return machine.PlacementOf(ids) }

func keepAll(errlog.Event) bool { return true }

func TestIndexCounts(t *testing.T) {
	events := []errlog.Event{
		ev(1, time.Minute, taxonomy.HardwareMemoryUE),
		ev(1, 2*time.Minute, taxonomy.HardwareMemoryCE), // benign: never evidence
		ev(2, time.Hour, taxonomy.NodeHeartbeat),
		sysEv(30*time.Minute, taxonomy.FilesystemLBUG),
	}
	events[2].Severity = taxonomy.SevWarning // below SevError: never evidence
	if ix := NewIndex(events); ix.Len() != 2 {
		t.Errorf("Len = %d, want the 2 qualifying events", ix.Len())
	}
}

func TestNodeWindowBoundsInclusive(t *testing.T) {
	events := []errlog.Event{
		ev(5, 10*time.Minute, taxonomy.NodeHeartbeat),
		ev(5, 20*time.Minute, taxonomy.NodeHeartbeat),
		ev(5, 30*time.Minute, taxonomy.NodeHeartbeat),
	}
	ix := NewIndex(events)
	node5 := nodes(5)
	last := func(e errlog.Event) bool { return e.Time.Equal(base.Add(30 * time.Minute)) }
	if got, ok := ix.FirstInWindow(node5, base.Add(10*time.Minute), base.Add(30*time.Minute), keepAll); !ok || got != events[0] {
		t.Errorf("inclusive window: first %+v, %v; want the event at its start", got, ok)
	}
	if _, ok := ix.FirstInWindow(node5, base.Add(10*time.Minute), base.Add(30*time.Minute), last); !ok {
		t.Error("inclusive window misses the event at its end")
	}
	if got, ok := ix.FirstInWindow(node5, base.Add(11*time.Minute), base.Add(29*time.Minute), keepAll); !ok || got != events[1] {
		t.Errorf("interior window: first %+v, %v; want the middle event", got, ok)
	}
	if _, ok := ix.FirstInWindow(node5, base.Add(31*time.Minute), base.Add(time.Hour), keepAll); ok {
		t.Error("window past every event found one")
	}
	if _, ok := ix.FirstInWindow(nodes(99), base, base.Add(time.Hour), keepAll); ok {
		t.Error("a placement without events found one")
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
	got, ok := ix.FirstInWindow(nodes(1, 2), base, base.Add(time.Hour), keepAll)
	if !ok || got.Category != taxonomy.InterconnectRouting {
		t.Errorf("first event %v, want the system-wide routing event", got.Category)
	}
	noSys := func(e errlog.Event) bool { return !e.IsSystemWide() }
	if got, _ := ix.FirstInWindow(nodes(1, 2), base, base.Add(time.Hour), noSys); got.Category != taxonomy.HardwareMemoryUE {
		t.Errorf("first node event %v, want node 1's, not node 3's", got.Category)
	}
}

func TestFirstInWindowPicksEarliest(t *testing.T) {
	events := []errlog.Event{
		ev(1, 40*time.Minute, taxonomy.HardwareMemoryUE),
		ev(2, 10*time.Minute, taxonomy.NodeHeartbeat),
		sysEv(25*time.Minute, taxonomy.FilesystemLBUG),
	}
	ix := NewIndex(events)
	got, ok := ix.FirstInWindow(nodes(1, 2), base, base.Add(time.Hour), keepAll)
	if !ok {
		t.Fatal("found nothing")
	}
	if got.Category != taxonomy.NodeHeartbeat {
		t.Errorf("earliest = %v, want NodeHeartbeat", got.Category)
	}
	// With a filter that excludes the heartbeat, the system event wins.
	got, ok = ix.FirstInWindow(nodes(1, 2), base, base.Add(time.Hour),
		func(e errlog.Event) bool { return e.Category != taxonomy.NodeHeartbeat })
	if !ok || got.Category != taxonomy.FilesystemLBUG {
		t.Errorf("filtered earliest = %v ok=%v, want FilesystemLBUG", got.Category, ok)
	}
}

func TestFirstInWindowEmpty(t *testing.T) {
	ix := NewIndex(nil)
	if _, ok := ix.FirstInWindow(nodes(1), base, base.Add(time.Hour), keepAll); ok {
		t.Error("empty index returned an event")
	}
}

// bruteFirst is the search done by a straight scan of events in input order:
// the earliest match wins; at one instant a node event beats a system-wide
// one, a lower node ID a higher one, and an earlier event a later one.
func bruteFirst(events []errlog.Event, on func(machine.NodeID) bool, from, to time.Time, keep func(errlog.Event) bool) (errlog.Event, bool) {
	var best errlog.Event
	found := false
	for _, e := range events {
		if e.Time.Before(from) || e.Time.After(to) || !Qualifying(e) || !keep(e) || !e.IsSystemWide() && !on(e.Node) {
			continue
		}
		beats := !found || e.Time.Before(best.Time)
		if found && e.Time.Equal(best.Time) && !e.IsSystemWide() {
			beats = best.IsSystemWide() || e.Node < best.Node
		}
		if beats {
			best, found = e, true
		}
	}
	return best, found
}

// TestWindowAgainstBruteForce cross-checks the index against a straight
// linear scan on randomized inputs dense in same-instant ties.
func TestWindowAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const nEvents = 3000
	cats := []taxonomy.Category{taxonomy.NodeHeartbeat, taxonomy.KernelPanic, taxonomy.HardwareMemoryCE, taxonomy.InterconnectRouting}
	events := make([]errlog.Event, 0, nEvents)
	for i := 0; i < nEvents; i++ {
		e := ev(rng.Intn(40), time.Duration(rng.Intn(2000))*time.Minute, cats[rng.Intn(len(cats))])
		e.Message = string(rune('a' + i%26))
		if rng.Intn(20) == 0 {
			e.Node = errlog.SystemWide
		}
		events = append(events, e)
	}
	ix := NewIndex(events)

	for trial := 0; trial < 500; trial++ {
		var ids []machine.NodeID
		for len(ids) < 1+rng.Intn(12) {
			ids = append(ids, machine.NodeID(rng.Intn(40)))
		}
		p := nodes(ids...)
		from := base.Add(time.Duration(rng.Intn(2000)) * time.Minute)
		to := from.Add(time.Duration(rng.Intn(120)) * time.Minute)
		keep := func(e errlog.Event) bool { return e.Category != cats[trial%len(cats)] }

		want, wantOK := bruteFirst(events, p.Contains, from, to, keep)
		if got, ok := ix.FirstInWindow(p, from, to, keep); ok != wantOK || got != want {
			t.Fatalf("trial %d: FirstInWindow = %+v, %v; brute force %+v, %v", trial, got, ok, want, wantOK)
		}
		// FirstAnywhere ignores placement: the first match in time order.
		var first errlog.Event
		firstOK := false
		for _, e := range events {
			in := !e.Time.Before(from) && !e.Time.After(to)
			if in && Qualifying(e) && keep(e) && (!firstOK || e.Time.Before(first.Time)) {
				first, firstOK = e, true
			}
		}
		if got, ok := ix.FirstAnywhere(from, to, keep); ok != firstOK || got != first {
			t.Fatalf("trial %d: FirstAnywhere = %+v, %v; brute force %+v, %v", trial, got, ok, first, firstOK)
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
		if got, ok := ix.FirstInWindow(nodes(7), from, to, keep); !ok || got != firstNode {
			t.Errorf("%s index: node evidence %+v, want the first same-instant event %+v", name, got, firstNode)
		}
		if got, ok := ix.FirstInWindow(nodes(8), from, to, keep); !ok || got != firstSys {
			t.Errorf("%s index: system-wide evidence %+v, want %+v", name, got, firstSys)
		}
		if got, ok := ix.FirstAnywhere(from, to, keep); !ok || got != firstNode {
			t.Errorf("%s index: temporal-only evidence %+v, want %+v", name, got, firstNode)
		}
	}

	// Unsorted input takes the stable-sort path: ties keep input order there
	// too.
	rev := append(slices.Clone(events[cut:]), events[:cut]...)
	if got, ok := NewIndex(rev).FirstInWindow(nodes(7), from, to, keep); !ok || got != firstNode {
		t.Errorf("unsorted input: evidence %+v, want %+v", got, firstNode)
	}
}
