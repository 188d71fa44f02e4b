package whatif

import (
	"testing"

	"logdiver/internal/raceflag"
)

// BenchmarkSimulate prices one full simulation — the four default
// policies plus the implicit baseline over the fixture's analyzed stream.
// This is exactly the work one cold /v1/whatif render performs; bench/
// gates its wall time as whatif_miss_ms.
func BenchmarkSimulate(b *testing.B) {
	f := getFixture(b)
	pols := DefaultPolicies()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Simulate(f.input, pols, Options{Seed: 1, Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Runs != len(f.input.Runs) {
			b.Fatal("short report")
		}
	}
}

// BenchmarkSimulateRun prices the per-run hot path under the heaviest
// default policy.
func BenchmarkSimulateRun(b *testing.B) {
	f := getFixture(b)
	pol := DefaultPolicies()[3]
	mtti := newMTTITable(f.input)
	runs := f.input.Runs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := simulateRun(&runs[i%len(runs)], pol, 1, mtti)
		if d.consumedExtra < 0 {
			b.Fatal("negative consumed node-hours")
		}
	}
}

// TestSimulateAllocCeilings: a full simulation allocates per policy and
// per report section, never per run (measured 121), and the per-run kernel
// not at all.
func TestSimulateAllocCeilings(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	f := getFixture(t)
	pols := DefaultPolicies()
	const ceiling = 256
	if n := testing.AllocsPerRun(5, func() {
		if _, err := Simulate(f.input, pols, Options{Seed: 1, Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	}); n > ceiling {
		t.Errorf("Simulate over %d runs: %.0f allocs/op, ceiling %d", len(f.input.Runs), n, ceiling)
	}

	mtti := newMTTITable(f.input)
	runs := f.input.Runs
	i := 0
	if n := testing.AllocsPerRun(len(runs), func() {
		simulateRun(&runs[i%len(runs)], pols[3], 1, mtti)
		i++
	}); n != 0 {
		t.Errorf("simulateRun: %.2f allocs/op, want 0", n)
	}
}
