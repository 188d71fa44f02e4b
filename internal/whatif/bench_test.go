package whatif

import (
	"runtime"
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
	feats, global := features(f.input, 1)
	s := newSweep(DefaultPolicies()[3], f.input.MTTI, global)
	var d runDelta
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.run(&feats[i%len(feats)], 1, &d)
		if d.consumedExtra < 0 {
			b.Fatal("negative consumed node-hours")
		}
	}
}

// TestSimulateAllocCeilings: a full simulation allocates per policy and
// per report section, never per run (measured 137), and the per-run kernel
// not at all. Per run it allocates one 40-byte feature record and one
// 56-byte delta, within the 105 bytes a replay over the runs themselves took
// (measured 102.6 on the fixture's 3,970 runs).
func TestSimulateAllocCeilings(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	f := getFixture(t)
	pols := DefaultPolicies()
	simulate := func() {
		if _, err := Simulate(f.input, pols, Options{Seed: 1, Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	}
	const ceiling = 137
	if n := testing.AllocsPerRun(5, simulate); n > ceiling {
		t.Errorf("Simulate over %d runs: %.0f allocs/op, ceiling %d", len(f.input.Runs), n, ceiling)
	}
	const bytesPerRun = 105
	const reps = 5
	simulate()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range reps {
		simulate()
	}
	runtime.ReadMemStats(&after)
	if b := float64(after.TotalAlloc-before.TotalAlloc) / reps / float64(len(f.input.Runs)); b > bytesPerRun {
		t.Errorf("Simulate over %d runs: %.1f B/run, ceiling %d", len(f.input.Runs), b, bytesPerRun)
	}

	feats, global := features(f.input, 1)
	s := newSweep(pols[3], f.input.MTTI, global)
	var d runDelta
	i := 0
	if n := testing.AllocsPerRun(len(feats), func() {
		s.run(&feats[i%len(feats)], 1, &d)
		i++
	}); n != 0 {
		t.Errorf("sweep.run: %.2f allocs/op, want 0", n)
	}
}
