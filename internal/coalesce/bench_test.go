package coalesce

import (
	"math/rand"
	"testing"
	"time"

	"logdiver/internal/errlog"
	"logdiver/internal/machine"
	"logdiver/internal/taxonomy"
)

// benchEvents builds a realistic mixed stream: bursts on some nodes,
// singletons elsewhere, a fraction duplicated.
func benchEvents(n int) []errlog.Event {
	rng := rand.New(rand.NewSource(42))
	start := time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC)
	cats := []taxonomy.Category{
		taxonomy.HardwareMemoryCE, taxonomy.FilesystemTimeout,
		taxonomy.NodeHeartbeat, taxonomy.InterconnectLink,
	}
	events := make([]errlog.Event, 0, n)
	for len(events) < n {
		node := machine.NodeID(rng.Intn(2000))
		cat := cats[rng.Intn(len(cats))]
		at := start.Add(time.Duration(rng.Intn(30*86400)) * time.Second)
		burst := 1 + rng.Intn(10)
		for k := 0; k < burst && len(events) < n; k++ {
			e := errlog.Event{
				Time:     at.Add(time.Duration(k*7) * time.Second),
				Node:     node,
				Category: cat,
				Severity: taxonomy.SevWarning,
				Message:  "bench event",
			}
			events = append(events, e)
			if rng.Float64() < 0.02 && len(events) < n {
				events = append(events, e) // duplicate
			}
		}
	}
	return events
}

func BenchmarkDedup(b *testing.B) {
	events := benchEvents(50000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := Dedup(events); len(out) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkTuples(b *testing.B) {
	events := Dedup(benchEvents(50000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := Tuples(events, DefaultTemporalWindow); len(out) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkSpatial(b *testing.B) {
	tuples := Tuples(Dedup(benchEvents(50000)), DefaultTemporalWindow)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := Spatial(tuples, DefaultSpatialWindow); len(out) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkPipeline(b *testing.B) {
	events := Dedup(benchEvents(50000))
	b.SetBytes(int64(len(events)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, stats := Pipeline(events, len(events), DefaultTemporalWindow, DefaultSpatialWindow)
		if stats.Groups == 0 {
			b.Fatal("no groups")
		}
	}
}
