package coalesce

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"logdiver/internal/errlog"
	"logdiver/internal/machine"
	"logdiver/internal/taxonomy"
)

var base = time.Date(2013, 4, 3, 0, 0, 0, 0, time.UTC)

func ev(node int, offset time.Duration, cat taxonomy.Category, msg string) errlog.Event {
	return errlog.Event{
		Time:     base.Add(offset),
		Node:     machine.NodeID(node),
		Category: cat,
		Severity: taxonomy.SevError,
		Message:  msg,
	}
}

func TestDedupRemovesExactDuplicates(t *testing.T) {
	e := ev(1, time.Minute, taxonomy.HardwareMemoryCE, "same")
	other := ev(1, time.Minute, taxonomy.HardwareMemoryCE, "different message")
	got := Dedup([]errlog.Event{e, e, e, other})
	if len(got) != 2 {
		t.Fatalf("Dedup returned %d events, want 2", len(got))
	}
}

func TestDedupEmptyAndSorted(t *testing.T) {
	if got := Dedup(nil); got != nil {
		t.Errorf("Dedup(nil) = %v", got)
	}
	events := []errlog.Event{
		ev(1, 3*time.Minute, taxonomy.NodeHeartbeat, "c"),
		ev(1, time.Minute, taxonomy.NodeHeartbeat, "a"),
		ev(1, 2*time.Minute, taxonomy.NodeHeartbeat, "b"),
	}
	got := Dedup(events)
	for i := 1; i < len(got); i++ {
		if got[i].Time.Before(got[i-1].Time) {
			t.Error("Dedup output not time-sorted")
		}
	}
	if len(events) != 3 {
		t.Error("input mutated")
	}
}

func TestDedupPreservesDistinctNodesAndCategories(t *testing.T) {
	events := []errlog.Event{
		ev(1, time.Minute, taxonomy.HardwareMemoryCE, "m"),
		ev(2, time.Minute, taxonomy.HardwareMemoryCE, "m"),
		ev(1, time.Minute, taxonomy.HardwareMemoryUE, "m"),
	}
	if got := Dedup(events); len(got) != 3 {
		t.Errorf("Dedup collapsed distinct events: %d", len(got))
	}
}

func TestTuplesBurstCollapses(t *testing.T) {
	var events []errlog.Event
	// Burst of 10 events 30s apart, then a gap, then one more.
	for i := 0; i < 10; i++ {
		events = append(events, ev(7, time.Duration(i)*30*time.Second, taxonomy.HardwareMemoryCE, "mce"))
	}
	events = append(events, ev(7, 2*time.Hour, taxonomy.HardwareMemoryCE, "mce later"))
	tuples := Tuples(events, DefaultTemporalWindow)
	if len(tuples) != 2 {
		t.Fatalf("got %d tuples, want 2", len(tuples))
	}
	if tuples[0].Count != 10 {
		t.Errorf("first tuple Count = %d, want 10", tuples[0].Count)
	}
	if tuples[0].Start != base || tuples[0].End != base.Add(270*time.Second) {
		t.Errorf("first tuple span [%v,%v]", tuples[0].Start, tuples[0].End)
	}
	if tuples[1].Count != 1 {
		t.Errorf("second tuple Count = %d, want 1", tuples[1].Count)
	}
}

func TestTuplesSeparateCategoriesAndNodes(t *testing.T) {
	events := []errlog.Event{
		ev(1, 0, taxonomy.HardwareMemoryCE, "a"),
		ev(1, time.Second, taxonomy.HardwareMemoryUE, "b"),
		ev(2, 2*time.Second, taxonomy.HardwareMemoryCE, "c"),
	}
	tuples := Tuples(events, DefaultTemporalWindow)
	if len(tuples) != 3 {
		t.Errorf("got %d tuples, want 3 (category and node separate episodes)", len(tuples))
	}
}

func TestTuplesZeroWindow(t *testing.T) {
	events := []errlog.Event{
		ev(1, 0, taxonomy.NodeHeartbeat, "a"),
		ev(1, time.Nanosecond, taxonomy.NodeHeartbeat, "b"),
	}
	if got := Tuples(events, 0); len(got) != 2 {
		t.Errorf("zero window produced %d tuples, want 2", len(got))
	}
}

func TestTuplesSeverityEscalation(t *testing.T) {
	a := ev(1, 0, taxonomy.InterconnectLink, "warn")
	a.Severity = taxonomy.SevWarning
	b := ev(1, time.Minute, taxonomy.InterconnectLink, "crit")
	b.Severity = taxonomy.SevCritical
	tuples := Tuples([]errlog.Event{a, b}, DefaultTemporalWindow)
	if len(tuples) != 1 {
		t.Fatalf("got %d tuples", len(tuples))
	}
	if tuples[0].Severity != taxonomy.SevCritical {
		t.Errorf("Severity = %v, want CRIT", tuples[0].Severity)
	}
	if tuples[0].First.Message != "warn" {
		t.Errorf("First = %q, want earliest event", tuples[0].First.Message)
	}
}

func TestSpatialMergesAcrossNodes(t *testing.T) {
	// A Lustre outage seen by 50 clients within a minute.
	var events []errlog.Event
	for n := 0; n < 50; n++ {
		events = append(events, ev(n, time.Duration(n)*time.Second, taxonomy.FilesystemUnavail, "ost down"))
	}
	tuples := Tuples(events, DefaultTemporalWindow)
	groups := Spatial(tuples, DefaultSpatialWindow)
	if len(groups) != 1 {
		t.Fatalf("got %d groups, want 1", len(groups))
	}
	g := groups[0]
	if len(g.Nodes) != 50 {
		t.Errorf("group has %d nodes, want 50", len(g.Nodes))
	}
	if g.Tuples != 50 || g.Events != 50 {
		t.Errorf("Tuples=%d Events=%d, want 50/50", g.Tuples, g.Events)
	}
	for i := 1; i < len(g.Nodes); i++ {
		if g.Nodes[i] <= g.Nodes[i-1] {
			t.Error("group nodes not ascending")
		}
	}
}

func TestSpatialKeepsDistantEpisodesApart(t *testing.T) {
	events := []errlog.Event{
		ev(1, 0, taxonomy.NodeHeartbeat, "a"),
		ev(2, 3*time.Hour, taxonomy.NodeHeartbeat, "b"),
	}
	groups := Spatial(Tuples(events, DefaultTemporalWindow), DefaultSpatialWindow)
	if len(groups) != 2 {
		t.Errorf("got %d groups, want 2", len(groups))
	}
}

func TestSpatialKeepsCategoriesApart(t *testing.T) {
	events := []errlog.Event{
		ev(1, 0, taxonomy.NodeHeartbeat, "a"),
		ev(2, time.Second, taxonomy.HardwareMemoryUE, "b"),
	}
	groups := Spatial(Tuples(events, DefaultTemporalWindow), DefaultSpatialWindow)
	if len(groups) != 2 {
		t.Errorf("got %d groups, want 2 (categories must not merge)", len(groups))
	}
}

func TestSpatialSystemWideFlag(t *testing.T) {
	sys := ev(0, 0, taxonomy.InterconnectRouting, "warm swap")
	sys.Node = errlog.SystemWide
	node := ev(3, 30*time.Second, taxonomy.InterconnectRouting, "reroute")
	groups := Spatial(Tuples([]errlog.Event{sys, node}, DefaultTemporalWindow), DefaultSpatialWindow)
	if len(groups) != 1 {
		t.Fatalf("got %d groups, want 1", len(groups))
	}
	if !groups[0].SystemWide {
		t.Error("SystemWide not set")
	}
	if len(groups[0].Nodes) != 1 {
		t.Errorf("Nodes = %v, want the one node-scoped member", groups[0].Nodes)
	}
}

func TestPipelineStats(t *testing.T) {
	e := ev(1, 0, taxonomy.HardwareMemoryCE, "dup")
	var events []errlog.Event
	for i := 0; i < 100; i++ {
		events = append(events, e) // 100 duplicates
	}
	for i := 0; i < 20; i++ { // one burst on another node
		events = append(events, ev(2, time.Duration(i)*10*time.Second, taxonomy.HardwareMemoryCE, "burst"))
	}
	_, groups, stats := Pipeline(Dedup(events), len(events), DefaultTemporalWindow, DefaultSpatialWindow)
	if stats.Raw != 120 {
		t.Errorf("Raw = %d", stats.Raw)
	}
	if stats.Deduped != 21 {
		t.Errorf("Deduped = %d, want 21", stats.Deduped)
	}
	if stats.Tuples != 2 {
		t.Errorf("Tuples = %d, want 2", stats.Tuples)
	}
	// The two episodes are on different nodes but overlap in time and
	// share a category, so they spatially merge.
	if stats.Groups != 1 || len(groups) != 1 {
		t.Errorf("Groups = %d, want 1", stats.Groups)
	}
	if stats.ReductionFactor() < 100 {
		t.Errorf("ReductionFactor = %v, want >= 100", stats.ReductionFactor())
	}
	if s := stats.String(); s == "" {
		t.Error("empty String()")
	}
}

func TestStatsZeroGroups(t *testing.T) {
	var s Stats
	if s.ReductionFactor() != 0 {
		t.Error("empty stats should report 0 reduction")
	}
}

// Property: tupling conserves raw event counts, tuples never overlap within
// a (node, category) stream, and every tuple span is within the window
// budget of its count.
func TestTuplesConservationProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n)%200 + 1
		events := make([]errlog.Event, count)
		cats := []taxonomy.Category{taxonomy.HardwareMemoryCE, taxonomy.NodeHeartbeat, taxonomy.FilesystemTimeout}
		for i := range events {
			events[i] = ev(rng.Intn(5), time.Duration(rng.Intn(86400))*time.Second,
				cats[rng.Intn(len(cats))], "m")
		}
		tuples := Tuples(events, DefaultTemporalWindow)
		var total int
		type key struct {
			n machine.NodeID
			c taxonomy.Category
		}
		lastEnd := map[key]time.Time{}
		for _, tp := range tuples {
			total += tp.Count
			if tp.End.Before(tp.Start) {
				return false
			}
			k := key{tp.Node, tp.Category}
			if prev, ok := lastEnd[k]; ok && !tp.Start.After(prev) {
				// Tuples on one stream must be ordered and disjoint —
				// but map iteration order means we see them sorted by
				// Start globally, which is fine for this check only if
				// starts are increasing per key.
				return false
			}
			lastEnd[k] = tp.End
		}
		return total == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: spatial grouping conserves tuple and event counts.
func TestSpatialConservationProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n)%300 + 1
		events := make([]errlog.Event, count)
		for i := range events {
			events[i] = ev(rng.Intn(10), time.Duration(rng.Intn(864000))*time.Second,
				taxonomy.NodeHeartbeat, "m")
		}
		tuples := Tuples(events, DefaultTemporalWindow)
		groups := Spatial(tuples, DefaultSpatialWindow)
		var gTuples, gEvents int
		for _, g := range groups {
			gTuples += g.Tuples
			gEvents += g.Events
			if g.End.Before(g.Start) {
				return false
			}
		}
		return gTuples == len(tuples) && gEvents == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestDedupSurvivorIsFirstInTotalOrder: duplicates share (Time, Node,
// Category, Message) but may differ in Cname and Severity — two service hosts
// reporting the same machine-wide event. The survivor is the first in
// CompareEvents order whatever the input order, and splitting the input,
// deduplicating the halves and deduplicating their concatenation — what an
// online pipeline's rounds amount to — keeps the same one.
func TestDedupSurvivorIsFirstInTotalOrder(t *testing.T) {
	var events []errlog.Event
	for i := 0; i < 40; i++ { // enough that an unstable sort moves ties around
		e := ev(int(errlog.SystemWide), time.Duration(i/8)*time.Minute, taxonomy.FilesystemUnavail, "ost0001 unavailable")
		e.Cname = []string{"smw", "sdb", "boot", "mds"}[i%4]
		if i%8 >= 4 {
			e.Severity = taxonomy.SevCritical
		}
		events = append(events, e)
	}
	want := Dedup(events)
	if len(want) != 5 {
		t.Fatalf("Dedup kept %d events, want one per minute: 5", len(want))
	}
	for _, e := range want {
		if e.Cname != "boot" || e.Severity != taxonomy.SevError {
			t.Errorf("survivor at %s is %s/%v, want the first in total order: boot/%v", e.Time.Format("15:04"), e.Cname, e.Severity, taxonomy.SevError)
		}
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
		cut := rng.Intn(len(events) + 1)
		got := Dedup(append(Dedup(events[:cut]), Dedup(events[cut:])...))
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d survivors, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d cut %d: survivor %d is %+v, want %+v", trial, cut, i, got[i], want[i])
			}
		}
	}
}
