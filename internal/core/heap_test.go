package core

import (
	"runtime"
	"testing"
	"time"

	"logdiver/internal/gen"
	"logdiver/internal/raceflag"
)

// liveHeap is the heap still reachable after two collections.
func liveHeap() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// heldHeap is what one fixture size holds on the heap beyond its archive
// bytes: a batch Result, the online pipeline with its last Result, and the
// pipeline alone.
type heldHeap struct {
	runs                        int
	batch, withResult, pipeline int64
}

// measureHeldHeap generates the test dataset over days days and measures what
// Analyze's Result and an Incremental fed the same bytes in even rounds hold.
func measureHeldHeap(t *testing.T, days, rounds int) heldHeap {
	t.Helper()
	ds, err := gen.Generate(testConfig(days))
	if err != nil {
		t.Fatal(err)
	}
	top := ds.Topology
	acc, aps, sys := archiveText(t, ds)
	base := liveHeap()

	var h heldHeap
	res, err := Analyze(archivesOf(acc, aps, sys), top, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	h.runs = len(res.Runs)
	h.batch = liveHeap() - base
	runtime.KeepAlive(res)

	inc, err := NewIncremental(top, time.UTC, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	accC, apsC, sysC := splitChunks(acc, rounds), splitChunks(aps, rounds), splitChunks(sys, rounds)
	var last *Result
	for r := 0; r < rounds; r++ {
		if _, err := inc.Append(Delta{Accounting: accC[r], Apsys: apsC[r], Syslog: sysC[r]}); err != nil {
			t.Fatal(err)
		}
		if last, err = inc.Result(); err != nil {
			t.Fatal(err)
		}
	}
	if len(last.Runs) != h.runs {
		t.Fatalf("%d days: the pipeline holds %d runs, Analyze %d", days, len(last.Runs), h.runs)
	}
	h.withResult = liveHeap() - base
	runtime.KeepAlive(last)
	h.pipeline = liveHeap() - base
	runtime.KeepAlive(inc)
	runtime.KeepAlive([]string{acc, aps, sys}) // in base, so held to the end
	return h
}

// TestRetainedHeapPerRun gates the live heap per run of a batch Result, of
// the online pipeline alone and of the pipeline plus its last Result. Each
// figure is the slope between two sizes of one fixture, so fixed costs (the
// topology, the classifier, pools) cancel and what is left is what every
// further run costs to hold. A second copy of the runs, the events or the
// jobs kept anywhere in the pipeline moves its slope by at least the size
// of that record.
func TestRetainedHeapPerRun(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and analyzes two fixtures")
	}
	if raceflag.Enabled {
		t.Skip("heap volume is not meaningful under the race detector")
	}
	const rounds = 8
	small := measureHeldHeap(t, 3, rounds)
	large := measureHeldHeap(t, 12, rounds)
	runs := int64(large.runs - small.runs)
	if runs < 2*int64(small.runs) {
		t.Fatalf("fixtures of %d and %d runs: too close to take a slope", small.runs, large.runs)
	}
	for _, g := range []struct {
		what    string
		held    func(heldHeap) int64
		ceiling int64 // B/run: the measured figure plus about 5 %
	}{
		{"batch Result", func(h heldHeap) int64 { return h.batch }, 540},                // measured 511-512
		{"pipeline alone", func(h heldHeap) int64 { return h.pipeline }, 670},           // measured 634-638
		{"pipeline + last Result", func(h heldHeap) int64 { return h.withResult }, 950}, // measured 899-903
	} {
		perRun := (g.held(large) - g.held(small)) / runs
		t.Logf("%s: %d B/run (%d B at %d runs, %d B at %d runs)", g.what, perRun,
			g.held(small), small.runs, g.held(large), large.runs)
		if perRun > g.ceiling {
			t.Errorf("%s holds %d B per run, ceiling %d", g.what, perRun, g.ceiling)
		}
	}
}
