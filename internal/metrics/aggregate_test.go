package metrics

import (
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"logdiver/internal/alps"
	"logdiver/internal/correlate"
	"logdiver/internal/machine"
	"logdiver/internal/taxonomy"
)

// randomRuns draws n runs on a machine of the given extents: any outcome,
// cause and class, node counts from 1 to the machine size (the full machine
// included), durations from zero to 518 days, so node times overflow 64 bits.
func randomRuns(rng *rand.Rand, n int, top *machine.Topology) []correlate.AttributedRun {
	cats := taxonomy.Categories()
	runs := make([]correlate.AttributedRun, n)
	for i := range runs {
		class, size := machine.ClassXE, top.NumXE()
		if rng.Intn(3) == 0 {
			class, size = machine.ClassXK, top.NumXK()
		}
		nodes := 1 + rng.Intn(size)
		switch rng.Intn(4) {
		case 0:
			nodes = size
		case 1:
			nodes = 1 + rng.Intn(8) // small runs share sizes
		}
		if rng.Intn(40) == 0 { // outside the usual classes and counts
			class, nodes = machine.NodeClass(rng.Intn(6)), rng.Intn(3)-2
		}
		var dur time.Duration
		switch rng.Intn(4) {
		case 0:
			dur = time.Duration(rng.Int63n(int64(518 * 24 * time.Hour)))
		case 1:
			dur = 0
		default:
			dur = time.Duration(rng.Int63n(int64(48 * time.Hour)))
		}
		start := base.Add(time.Duration(rng.Int63n(int64(30 * 24 * time.Hour))))
		runs[i] = correlate.AttributedRun{
			AppRun: alps.AppRun{ApID: uint64(i + 1), Start: start, End: start.Add(dur)},
			Attribution: correlate.Attribution{
				Class:   class,
				Outcome: correlate.Outcomes()[rng.Intn(4)],
				Cause:   cats[rng.Intn(len(cats))],
				Nodes:   int32(nodes),
			},
		}
		if runs[i].Outcome != correlate.OutcomeSystemFailure && rng.Intn(2) == 0 {
			runs[i].Cause = 0
		}
	}
	return runs
}

// near reports whether two float sums agree within 1e-12 relative.
func near(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// checkRender compares every rendering of a with the reference walks over
// runs: counts exactly, hours within 1e-12 relative. The package functions
// must render exactly what a does.
func checkRender(t *testing.T, a *Aggregate, runs []correlate.AttributedRun, boundSets [][]int) {
	t.Helper()
	if got := Outcomes(runs); !reflect.DeepEqual(got, a.Outcomes()) {
		t.Fatalf("Outcomes %+v, aggregate renders %+v", got, a.Outcomes())
	}
	if got := ByCategory(runs); !reflect.DeepEqual(got, a.Categories()) {
		t.Fatalf("ByCategory %+v, aggregate renders %+v", got, a.Categories())
	}
	for _, bounds := range boundSets {
		for _, class := range []machine.NodeClass{0, machine.ClassXE, machine.ClassXK} {
			got, gerr := FailureProbabilityByScale(runs, bounds, class)
			want, werr := a.Scaling(bounds, class)
			if (gerr == nil) != (werr == nil) || !reflect.DeepEqual(got, want) {
				t.Fatalf("FailureProbabilityByScale over %v class %v: %+v, aggregate renders %+v", bounds, class, got, want)
			}
			gm, gerr := MTTIByScale(runs, bounds, class)
			wm, werr := a.MTTI(bounds, class)
			if (gerr == nil) != (werr == nil) || !reflect.DeepEqual(gm, wm) {
				t.Fatalf("MTTIByScale over %v class %v: %+v, aggregate renders %+v", bounds, class, gm, wm)
			}
		}
	}
	got, want := a.Outcomes(), refOutcomes(runs)
	if got.Total != want.Total || !reflect.DeepEqual(got.Counts, want.Counts) || !near(got.TotalNodeHours, want.TotalNodeHours) {
		t.Fatalf("outcomes %+v, reference %+v", got, want)
	}
	for o, h := range want.NodeHours {
		if g, ok := got.NodeHours[o]; !ok || !near(g, h) {
			t.Fatalf("outcome %v node-hours %v, reference %v", o, g, h)
		}
	}
	if len(got.NodeHours) != len(want.NodeHours) {
		t.Fatalf("node-hours keys %v, reference %v", got.NodeHours, want.NodeHours)
	}
	gc, wc := a.Categories(), refByCategory(runs)
	if len(gc) != len(wc) {
		t.Fatalf("%d categories, reference %d", len(gc), len(wc))
	}
	for i := range wc {
		g, w := gc[i], wc[i]
		if g.Group != w.Group || g.Category != w.Category || g.Failures != w.Failures || !near(g.NodeHoursLost, w.NodeHoursLost) {
			t.Fatalf("category row %d: %+v, reference %+v", i, g, w)
		}
	}
	for _, bounds := range boundSets {
		for _, class := range []machine.NodeClass{0, machine.ClassXE, machine.ClassXK} {
			gs, gerr := a.Scaling(bounds, class)
			ws, werr := refFailureProbabilityByScale(runs, bounds, class)
			if (gerr == nil) != (werr == nil) || !reflect.DeepEqual(gs, ws) {
				t.Fatalf("scaling over %v class %v: %+v (%v), reference %+v (%v)", bounds, class, gs, gerr, ws, werr)
			}
			gm, gerr := a.MTTI(bounds, class)
			wm, werr := refMTTIByScale(runs, bounds, class)
			if (gerr == nil) != (werr == nil) || len(gm) != len(wm) {
				t.Fatalf("mtti over %v class %v: %v, reference %v", bounds, class, gerr, werr)
			}
			for i := range wm {
				g, w := gm[i], wm[i]
				if g.Lo != w.Lo || g.Hi != w.Hi || g.Runs != w.Runs || g.Interrupts != w.Interrupts ||
					!near(g.ExposureHours, w.ExposureHours) || !near(g.MTTIHours, w.MTTIHours) {
					t.Fatalf("mtti over %v class %v bucket %d: %+v, reference %+v", bounds, class, i, g, w)
				}
			}
		}
	}
}

// mustEqualFold fails unless a is canonical and DeepEqual to a fresh fold
// of runs.
func mustEqualFold(t *testing.T, what string, a Aggregate, runs []correlate.AttributedRun) {
	t.Helper()
	if err := a.Check(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if want := Fold(runs); !reflect.DeepEqual(a, want) {
		t.Fatalf("%s differs from a fresh fold of its %d runs:\n got %+v\nwant %+v", what, len(runs), a, want)
	}
}

// FuzzAggregateLaws: random runs on two topologies, folded through random
// splits, merges in random order, and Add/Sub sequences (re-attributions,
// runs added then retracted), must equal a fresh fold — canonical, so
// DeepEqual — and render like the reference walks over geometric and
// non-geometric bounds.
func FuzzAggregateLaws(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(3))
	f.Add(int64(2), uint8(0), uint8(1))
	f.Add(int64(3), uint8(1), uint8(7))
	f.Add(int64(4), uint8(200), uint8(12))
	small, err := machine.New(machine.Small())
	if err != nil {
		f.Fatal(err)
	}
	bw, err := machine.New(machine.BlueWaters())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed int64, n, parts uint8) {
		rng := rand.New(rand.NewSource(seed))
		// Two shards on different topologies.
		runs := append(randomRuns(rng, int(n)/2, small), randomRuns(rng, int(n)-int(n)/2, bw)...)
		for i := range runs {
			runs[i].ApID = uint64(i + 1)
		}
		// Geometric bounds of both machines and their union, plus ragged ones.
		boundSets := [][]int{
			GeometricBuckets(small.NumXE()), GeometricBuckets(small.NumXK()), GeometricBuckets(small.NumNodes()),
			GeometricBuckets(bw.NumXE()), GeometricBuckets(bw.NumXK()), GeometricBuckets(bw.NumNodes()),
			{1, 3, 10, 11, 700, 5000, 27649},
			{5, 6},
			{2},
		}
		ragged := []int{1 + rng.Intn(4)}
		for len(ragged) < 2+rng.Intn(10) {
			ragged = append(ragged, ragged[len(ragged)-1]+1+rng.Intn(4000))
		}
		boundSets = append(boundSets, ragged)

		whole := Fold(runs)
		mustEqualFold(t, "fold", whole, runs)
		checkRender(t, &whole, runs, boundSets)

		// Split into parts at random cuts, fold each, merge in random order.
		k := 1 + int(parts)%8
		cuts := []int{0, len(runs)}
		for i := 1; i < k; i++ {
			cuts = append(cuts, rng.Intn(len(runs)+1))
		}
		slices.Sort(cuts)
		folds := make([]Aggregate, k)
		for i := range folds {
			folds[i] = Fold(runs[cuts[i]:cuts[i+1]])
		}
		rng.Shuffle(k, func(i, j int) { folds[i], folds[j] = folds[j], folds[i] })
		var merged Aggregate
		for i := range folds {
			before := folds[i].Clone()
			merged.Merge(&folds[i])
			if !reflect.DeepEqual(folds[i], before) {
				t.Fatal("Merge wrote its argument")
			}
		}
		mustEqualFold(t, "merge of the parts", merged, runs)
		// The same parts merged as a tree: (p0+p1)+(p2+...).
		if k >= 2 {
			var left, right Aggregate
			left.Merge(&folds[0])
			left.Merge(&folds[1])
			for i := 2; i < k; i++ {
				right.Merge(&folds[i])
			}
			right.Merge(&left)
			mustEqualFold(t, "tree merge", right, runs)
		}

		// Add/Sub: re-attribute some runs (−old +new), retract and restore
		// others, add strangers and take them away again.
		carried := whole.Clone()
		now := slices.Clone(runs)
		strangers := randomRuns(rng, 1+rng.Intn(5), bw)
		for _, s := range strangers {
			carried.Add(&s)
		}
		for i := range now {
			switch rng.Intn(4) {
			case 0: // re-attribution
				old := now[i]
				now[i].Outcome = correlate.Outcomes()[rng.Intn(4)]
				now[i].Cause = taxonomy.Categories()[rng.Intn(len(taxonomy.Categories()))]
				carried.Sub(&old)
				carried.Add(&now[i])
			case 1: // retracted and restored
				carried.Sub(&now[i])
				carried.Add(&now[i])
			}
		}
		for _, s := range strangers {
			carried.Sub(&s)
		}
		mustEqualFold(t, "carried after Add/Sub", carried, now)
		checkRender(t, &carried, now, boundSets[:1])
		if !reflect.DeepEqual(whole, Fold(runs)) {
			t.Fatal("a clone's Add/Sub wrote the original")
		}
		// Subtracting everything is the zero aggregate.
		for i := range now {
			carried.Sub(&now[i])
		}
		if !reflect.DeepEqual(carried, Aggregate{}) {
			t.Fatalf("subtracting every run leaves %+v", carried)
		}
	})
}

// TestNanosHours pins the 128-bit conversion: exactly Duration.Hours for
// values that fit a Duration, and within an ulp or two of the exact
// quotient for wider ones, quotients wider than 64 bits included.
func TestNanosHours(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		d := time.Duration(rng.Int63())
		if i%2 == 1 {
			d = -d
		}
		if got := nanosOf(d).Hours(); got != d.Hours() {
			t.Fatalf("%d ns: %v hours, Duration.Hours %v", d, got, d.Hours())
		}
	}
	hour := new(big.Float).SetInt64(int64(time.Hour))
	for i := 0; i < 4000; i++ {
		n := nanosOf(time.Duration(rng.Int63())).times(int64(rng.Int31()))
		n.Add(nanosOf(time.Duration(rng.Int63())).times(int64(rng.Int31())))
		if i >= 2000 { // quotients above 2^64 hours
			n = Nanos{hi: rng.Uint64() >> 1, lo: rng.Uint64()}
		}
		if i%2 == 1 {
			var neg Nanos
			neg.sub(n)
			n = neg
		}
		exact := new(big.Int).SetUint64(n.hi)
		exact.Lsh(exact, 64).Or(exact, new(big.Int).SetUint64(n.lo))
		if int64(n.hi) < 0 {
			exact.Sub(exact, new(big.Int).Lsh(big.NewInt(1), 128))
		}
		want, _ := new(big.Float).Quo(new(big.Float).SetInt(exact), hour).Float64()
		if got := n.Hours(); math.Abs(got-want) > 4e-16*math.Abs(want) {
			t.Fatalf("%v ns: %v hours, exact %v", exact, got, want)
		}
	}
}

// TestNodeTimeWide: a full-machine run of 518 days overflows 64-bit
// nanoseconds; its node time must still be exact.
func TestNodeTimeWide(t *testing.T) {
	r := mkRun(1, 27648, 518*24*time.Hour, machine.ClassXE, correlate.OutcomeSuccess, 0)
	n := NodeTime(&r)
	if n.hi == 0 {
		t.Fatalf("node time %+v fits 64 bits; the test proves nothing", n)
	}
	if got, want := n.Hours(), 27648.0*518*24; got != want {
		t.Fatalf("node-hours %v, want %v", got, want)
	}
	var a Aggregate
	for i := 0; i < 3; i++ {
		a.Add(&r)
	}
	if got, want := a.Outcomes().TotalNodeHours, 3*27648.0*518*24; got != want {
		t.Fatalf("three runs: %v node-hours, want %v", got, want)
	}
}
