package metrics

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"time"

	"logdiver/internal/correlate"
	"logdiver/internal/machine"
	"logdiver/internal/stats"
	"logdiver/internal/taxonomy"
)

// Exact aggregation. An Aggregate holds integer counts and integer
// nanoseconds, so adding runs is exact: the sum of any runs is one value
// whatever the order, a run added and later subtracted leaves no trace, and
// the aggregates of disjoint run sets fold into the aggregate of their union.
// That is what lets an incremental round apply −old +new for the runs it
// re-attributed, and a fleet merge fold per-shard partials instead of
// re-walking every shard's runs. Hours are floats only once, when rendered.
//
// Every aggregate function of this package (Outcomes, ByCategory,
// FailureProbabilityByScale, MTTIByScale) folds its runs into an Aggregate
// and renders that: there is one arithmetic path.

// Nanos is an exact signed 128-bit count of nanoseconds: of wall-clock time,
// or of node time (nodes × wall-clock nanoseconds). 2^127 ns is some 5e21
// years, so no sum over any fleet's history can overflow it.
type Nanos struct{ hi, lo uint64 }

// nanosOf widens a duration.
func nanosOf(d time.Duration) Nanos { return Nanos{hi: uint64(int64(d) >> 63), lo: uint64(d)} }

// NodeTime returns a run's node time: its node count times its duration.
func NodeTime(r *correlate.AttributedRun) Nanos {
	return nanosOf(r.Duration()).times(int64(r.Nodes))
}

// times returns n·k (two's complement, modulo 2^128).
func (n Nanos) times(k int64) Nanos {
	hi, lo := bits.Mul64(n.lo, uint64(k))
	return Nanos{hi: hi + n.hi*uint64(k) + n.lo*uint64(k>>63), lo: lo}
}

// Add adds x to n.
func (n *Nanos) Add(x Nanos) {
	var c uint64
	n.lo, c = bits.Add64(n.lo, x.lo, 0)
	n.hi += x.hi + c
}

// sub subtracts x from n.
func (n *Nanos) sub(x Nanos) {
	var b uint64
	n.lo, b = bits.Sub64(n.lo, x.lo, 0)
	n.hi -= x.hi + b
}

// Hours converts n to hours. A value that fits a time.Duration converts
// exactly as Duration.Hours does.
func (n Nanos) Hours() float64 {
	if int64(n.hi) < 0 {
		var neg Nanos
		neg.sub(n)
		return -neg.Hours()
	}
	const hour = uint64(time.Hour)
	qhi := n.hi / hour
	qlo, r := bits.Div64(n.hi%hour, n.lo, hour)
	h := float64(qlo) + float64(r)/float64(hour)
	if qhi != 0 {
		h += float64(qhi) * 0x1p64
	}
	return h
}

// tally is one row of an Aggregate: runs, the system failures among them,
// and their summed time — node time in the outcome and category rows, wall
// time in the size rows.
type tally struct {
	runs, failures int
	time           Nanos
}

func (t *tally) apply(sign int, fail bool, x Nanos) {
	t.runs += sign
	if fail {
		t.failures += sign
	}
	if sign > 0 {
		t.time.Add(x)
	} else {
		t.time.sub(x)
	}
}

// row is a keyed tally. Rows are kept sorted by key, with no zero row.
type row struct {
	key uint64
	tally
}

// sizeKey orders the size rows by class, then exact node count.
func sizeKey(class machine.NodeClass, nodes int32) uint64 {
	return uint64(uint32(class))<<32 | uint64(uint32(nodes))
}

func (r *row) class() machine.NodeClass { return machine.NodeClass(int32(r.key >> 32)) }
func (r *row) nodes() int               { return int(int32(uint32(r.key))) }

// applyAt applies one run to the row of key, inserting the row when it is
// new and deleting it when it drops to zero, so rows stay canonical.
func applyAt(rows []row, key uint64, sign int, fail bool, x Nanos) []row {
	lo, hi := 0, len(rows)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); rows[m].key < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(rows) || rows[lo].key != key {
		rows = slices.Insert(rows, lo, row{key: key})
	}
	rows[lo].apply(sign, fail, x)
	if rows[lo].tally == (tally{}) {
		if rows = slices.Delete(rows, lo, lo+1); len(rows) == 0 {
			rows = nil
		}
	}
	return rows
}

// Aggregate is the exact, order-free summary of a run set that every served
// aggregate renders from: per outcome, per system-failure cause, and per
// (class, exact node count). Keying by the exact count is what lets
// aggregates built against different topologies fold exactly; bucket
// bounds are applied only when rendering.
//
// The zero value is the aggregate of no runs. Equal run sets (as multisets)
// give equal aggregates under reflect.DeepEqual, however they were reached.
// Add and Sub write the aggregate in place; Clone before sharing it.
type Aggregate struct {
	total    tally
	outcomes [correlate.OutcomeSystemFailure + 1]tally
	// causes holds the system failures per taxonomy.Category, sizes every
	// run per sizeKey; both sorted, without zero rows, nil when empty.
	causes, sizes []row
}

// Fold returns the aggregate of runs.
func Fold(runs []correlate.AttributedRun) Aggregate {
	var a Aggregate
	for i := range runs {
		a.Add(&runs[i])
	}
	return a
}

// Add adds one run.
func (a *Aggregate) Add(r *correlate.AttributedRun) { a.apply(r, 1) }

// Sub subtracts one run, previously added.
func (a *Aggregate) Sub(r *correlate.AttributedRun) { a.apply(r, -1) }

func (a *Aggregate) apply(r *correlate.AttributedRun, sign int) {
	sys := r.Outcome == correlate.OutcomeSystemFailure
	d := nanosOf(r.Duration())
	nt := d.times(int64(r.Nodes))
	a.total.apply(sign, sys, nt)
	a.outcomes[r.Outcome].apply(sign, sys, nt)
	if sys {
		a.causes = applyAt(a.causes, uint64(r.Cause), sign, true, nt)
	}
	a.sizes = applyAt(a.sizes, sizeKey(r.Class, r.Nodes), sign, sys, d)
}

// Merge adds every run of b. It never aliases b's rows.
func (a *Aggregate) Merge(b *Aggregate) {
	a.total.add(b.total)
	for o := range a.outcomes {
		a.outcomes[o].add(b.outcomes[o])
	}
	a.causes = mergeRows(a.causes, b.causes)
	a.sizes = mergeRows(a.sizes, b.sizes)
}

func (t *tally) add(u tally) {
	t.runs += u.runs
	t.failures += u.failures
	t.time.Add(u.time)
}

// mergeRows returns the row-wise sum of x and y in a fresh slice.
func mergeRows(x, y []row) []row {
	if len(x)+len(y) == 0 {
		return nil
	}
	out := make([]row, 0, len(x)+len(y))
	for len(x) > 0 || len(y) > 0 {
		switch {
		case len(y) == 0 || len(x) > 0 && x[0].key < y[0].key:
			out, x = append(out, x[0]), x[1:]
		case len(x) == 0 || y[0].key < x[0].key:
			out, y = append(out, y[0]), y[1:]
		default:
			r := x[0]
			r.add(y[0].tally)
			if r.tally != (tally{}) {
				out = append(out, r)
			}
			x, y = x[1:], y[1:]
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Clone returns a copy that shares nothing with a.
func (a *Aggregate) Clone() Aggregate {
	c := *a
	c.causes = slices.Clone(a.causes)
	c.sizes = slices.Clone(a.sizes)
	return c
}

// Runs is the number of runs aggregated.
func (a *Aggregate) Runs() int { return a.total.runs }

// Check verifies the conservation laws that tie the tables together, in
// exact integers: outcome counts and node times sum to the totals; the
// causes sum to the system failures; the size rows' runs and failures sum
// to the totals and the system failures, and their wall times weighted by
// node count sum to the total node time; and the rows are canonical. A
// violation is a bug in whatever maintained the aggregate.
func (a *Aggregate) Check() error {
	var sum tally
	for o := range a.outcomes {
		sum.add(a.outcomes[o])
	}
	if sum != a.total {
		return fmt.Errorf("metrics: outcome rows sum to %+v, total is %+v", sum, a.total)
	}
	sys := a.outcomes[correlate.OutcomeSystemFailure]
	if sys.failures != sys.runs || sum.failures != sys.runs {
		return fmt.Errorf("metrics: %d system failures, outcome rows count %d failures", sys.runs, sum.failures)
	}
	sum = tally{}
	for i, r := range a.causes {
		if err := canonical("cause", a.causes, i); err != nil {
			return err
		}
		sum.add(r.tally)
	}
	if sum != sys {
		return fmt.Errorf("metrics: cause rows sum to %+v, system failures are %+v", sum, sys)
	}
	sum = tally{}
	var nodeTime Nanos
	for i, r := range a.sizes {
		if err := canonical("size", a.sizes, i); err != nil {
			return err
		}
		sum.add(r.tally)
		nodeTime.Add(r.time.times(int64(r.nodes())))
	}
	if sum.runs != a.total.runs || sum.failures != sys.runs || nodeTime != a.total.time {
		return fmt.Errorf("metrics: size rows hold %d runs, %d failures, node time %v; totals are %d, %d, %v",
			sum.runs, sum.failures, nodeTime, a.total.runs, sys.runs, a.total.time)
	}
	return nil
}

// canonical reports a zero or out-of-order row i.
func canonical(table string, rows []row, i int) error {
	if rows[i].tally == (tally{}) {
		return fmt.Errorf("metrics: zero %s row %#x", table, rows[i].key)
	}
	if i > 0 && rows[i-1].key >= rows[i].key {
		return fmt.Errorf("metrics: %s rows out of order at %#x", table, rows[i].key)
	}
	return nil
}

// Outcomes renders the outcome breakdown.
func (a *Aggregate) Outcomes() OutcomeBreakdown {
	b := OutcomeBreakdown{
		Total:          a.total.runs,
		TotalNodeHours: a.total.time.Hours(),
		Counts:         make(map[correlate.Outcome]int, 4),
		NodeHours:      make(map[correlate.Outcome]float64, 4),
	}
	for o, t := range a.outcomes {
		if t != (tally{}) {
			b.Counts[correlate.Outcome(o)] = t.runs
			b.NodeHours[correlate.Outcome(o)] = t.time.Hours()
		}
	}
	return b
}

// Categories renders the per-cause failure breakdown, sorted by descending
// failure count (ties by category order).
func (a *Aggregate) Categories() []CategoryShare {
	out := make([]CategoryShare, 0, len(a.causes))
	for _, r := range a.causes { // ascending category
		c := taxonomy.Category(r.key)
		out = append(out, CategoryShare{Group: c.Group(), Category: c, Failures: r.runs, NodeHoursLost: r.time.Hours()})
	}
	slices.SortStableFunc(out, func(x, y CategoryShare) int { return y.Failures - x.Failures })
	return out
}

// Scaling renders the failure-probability-versus-scale curve over bounds
// (see FailureProbabilityByScale) for classFilter (0: every class).
func (a *Aggregate) Scaling(bounds []int, classFilter machine.NodeClass) ([]ScaleBucket, error) {
	if len(bounds) < 2 {
		return nil, fmt.Errorf("metrics: need at least 2 bucket bounds, got %d", len(bounds))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			return nil, fmt.Errorf("metrics: bucket bounds not ascending at %d", i)
		}
	}
	buckets := make([]ScaleBucket, len(bounds)-1)
	for i := range buckets {
		buckets[i] = ScaleBucket{Lo: bounds[i], Hi: bounds[i+1]}
	}
	a.eachSize(bounds, classFilter, func(i int, r *row) {
		buckets[i].Runs += r.runs
		buckets[i].Failures += r.failures
	})
	for i := range buckets {
		if buckets[i].Runs == 0 {
			continue
		}
		p, err := stats.Wilson(buckets[i].Failures, buckets[i].Runs, 1.96)
		if err != nil {
			return nil, err
		}
		buckets[i].Prob = p
	}
	return buckets, nil
}

// MTTI renders mean time to interrupt over bounds (see MTTIByScale) for
// classFilter (0: every class).
func (a *Aggregate) MTTI(bounds []int, classFilter machine.NodeClass) ([]MTTIBucket, error) {
	if len(bounds) < 2 {
		return nil, fmt.Errorf("metrics: need at least 2 bucket bounds, got %d", len(bounds))
	}
	buckets := make([]MTTIBucket, len(bounds)-1)
	exposure := make([]Nanos, len(buckets))
	for i := range buckets {
		buckets[i] = MTTIBucket{Lo: bounds[i], Hi: bounds[i+1]}
	}
	a.eachSize(bounds, classFilter, func(i int, r *row) {
		buckets[i].Runs += r.runs
		buckets[i].Interrupts += r.failures
		exposure[i].Add(r.time)
	})
	for i := range buckets {
		buckets[i].ExposureHours = exposure[i].Hours()
		if buckets[i].Interrupts > 0 {
			buckets[i].MTTIHours = buckets[i].ExposureHours / float64(buckets[i].Interrupts)
		}
	}
	return buckets, nil
}

// eachSize calls f with every size row of classFilter (0: every class) and
// the index of the bucket [bounds[i], bounds[i+1]) holding its node count;
// rows outside every bucket are skipped.
func (a *Aggregate) eachSize(bounds []int, classFilter machine.NodeClass, f func(i int, r *row)) {
	for k := range a.sizes {
		r := &a.sizes[k]
		if classFilter != 0 && r.class() != classFilter {
			continue
		}
		if i := sort.SearchInts(bounds, r.nodes()+1) - 1; i >= 0 && i < len(bounds)-1 {
			f(i, r)
		}
	}
}
