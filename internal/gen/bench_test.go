package gen

import (
	"testing"

	"logdiver/internal/machine"
)

// BenchmarkGenerateDay measures synthesizer throughput for one production
// day on the small machine.
func BenchmarkGenerateDay(b *testing.B) {
	cfg := testConfig(1)
	b.ReportAllocs()
	var runs int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		ds, err := Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		runs += len(ds.Runs)
	}
	b.ReportMetric(float64(runs)/float64(b.N), "runs/op")
}

// BenchmarkAllocator measures the placement allocator under steady churn:
// allocate 64-node jobs, release the oldest every third allocation.
func BenchmarkAllocator(b *testing.B) {
	ids := seqIDs(0, 20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := newAllocator(ids)
		var batches [][]machine.NodeID
		for k := 0; k < 200; k++ {
			got := a.alloc(64)
			if got == nil {
				b.Fatal("alloc failed")
			}
			batches = append(batches, got)
			if k%3 == 2 {
				if err := a.release(batches[0]); err != nil {
					b.Fatal(err)
				}
				batches = batches[1:]
			}
		}
	}
}
