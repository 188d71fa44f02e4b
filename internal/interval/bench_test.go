package interval

import (
	"math/rand"
	"testing"
	"time"

	"logdiver/internal/errlog"
	"logdiver/internal/machine"
	"logdiver/internal/taxonomy"
)

func benchIndex(nEvents int) (*Index, machine.Placement, time.Time) {
	rng := rand.New(rand.NewSource(7))
	start := time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
	events := make([]errlog.Event, nEvents)
	for i := range events {
		node := machine.NodeID(rng.Intn(27648))
		if rng.Intn(50) == 0 {
			node = errlog.SystemWide
		}
		events[i] = errlog.Event{
			Time:     start.Add(time.Duration(rng.Intn(100*86400)) * time.Second),
			Node:     node,
			Category: taxonomy.NodeHeartbeat,
			Severity: taxonomy.SevCritical,
		}
	}
	placement := make([]machine.NodeID, 256)
	for i := range placement {
		placement[i] = machine.NodeID(rng.Intn(27648))
	}
	return NewIndex(events), machine.PlacementOf(placement), start
}

func BenchmarkIndexBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	start := time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
	events := make([]errlog.Event, 100000)
	for i := range events {
		events[i] = errlog.Event{
			Time:     start.Add(time.Duration(rng.Intn(100*86400)) * time.Second),
			Node:     machine.NodeID(rng.Intn(27648)),
			Category: taxonomy.NodeHeartbeat,
			Severity: taxonomy.SevCritical,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ix := NewIndex(events); ix.Len() != len(events) {
			b.Fatal("bad index")
		}
	}
}

func BenchmarkFirstInWindow(b *testing.B) {
	ix, placement, start := benchIndex(100000)
	keep := func(e errlog.Event) bool { return e.Severity >= taxonomy.SevError }
	b.ResetTimer()
	var hits int
	for i := 0; i < b.N; i++ {
		from := start.Add(time.Duration(i%86400) * time.Second)
		if _, ok := ix.FirstInWindow(placement, from, from.Add(10*time.Minute), keep); ok {
			hits++
		}
	}
	_ = hits
}

func BenchmarkFirstAnywhere(b *testing.B) {
	ix, _, start := benchIndex(100000)
	keep := func(e errlog.Event) bool { return e.Severity >= taxonomy.SevError }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := start.Add(time.Duration(i%86400) * time.Second)
		ix.FirstAnywhere(from, from.Add(10*time.Minute), keep)
	}
}
