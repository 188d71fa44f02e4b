// Package metrics computes the study's headline measurements from
// attributed application runs: outcome breakdowns (counts and node-hours),
// failure probability as a function of application scale with Wilson
// confidence intervals, mean time to interrupt (MTTI) by scale, per-category
// failure breakdowns, production/lost node-hour timelines, energy-cost
// estimates for lost work, and — when ground truth is available — the
// error-detection coverage that exposes the hybrid-node detection gap.
package metrics

import (
	"fmt"
	"math/bits"
	"sort"
	"time"

	"logdiver/internal/correlate"
	"logdiver/internal/machine"
	"logdiver/internal/stats"
	"logdiver/internal/taxonomy"
)

// OutcomeBreakdown aggregates run counts and node-hours by outcome.
type OutcomeBreakdown struct {
	Total          int
	TotalNodeHours float64
	Counts         map[correlate.Outcome]int
	NodeHours      map[correlate.Outcome]float64
}

// Outcomes aggregates runs by outcome.
func Outcomes(runs []correlate.AttributedRun) OutcomeBreakdown {
	a := Fold(runs)
	return a.Outcomes()
}

// SystemFailureFraction returns the fraction of runs attributed to system
// problems — the paper's 1.53% headline.
func (b OutcomeBreakdown) SystemFailureFraction() float64 {
	if b.Total == 0 {
		return 0
	}
	return float64(b.Counts[correlate.OutcomeSystemFailure]) / float64(b.Total)
}

// SystemNodeHoursFraction returns the fraction of all node-hours consumed
// by runs that failed for system reasons — the paper's ~9% headline (work
// that was paid for in energy and lost).
func (b OutcomeBreakdown) SystemNodeHoursFraction() float64 {
	if b.TotalNodeHours == 0 {
		return 0
	}
	return b.NodeHours[correlate.OutcomeSystemFailure] / b.TotalNodeHours
}

// ScaleBucket is one point of the failure-probability-versus-scale curve.
type ScaleBucket struct {
	// Lo and Hi bound the bucket: Lo <= nodes < Hi.
	Lo, Hi int
	// Runs and Failures count bucket membership and system failures.
	Runs, Failures int
	// Prob is the Wilson-interval estimate of P(system failure).
	Prob stats.Proportion
}

// Label renders the bucket bounds compactly.
func (b ScaleBucket) Label() string {
	if b.Hi-b.Lo == 1 {
		return fmt.Sprintf("%d", b.Lo)
	}
	return fmt.Sprintf("%d-%d", b.Lo, b.Hi-1)
}

// GeometricBuckets returns bucket boundaries [1,2,4,...,>=max] suitable for
// scale analysis; the final boundary is one past max.
func GeometricBuckets(max int) []int {
	bounds := append(make([]int, 0, bits.Len(uint(max))+1), 1)
	for b := 2; b < max; b *= 2 {
		bounds = append(bounds, b)
	}
	bounds = append(bounds, max+1)
	return bounds
}

// FailureProbabilityByScale buckets runs by placement size and estimates
// P(system failure) per bucket. bounds must be ascending; bucket i covers
// [bounds[i], bounds[i+1]). Runs outside every bucket are ignored. classFilter
// restricts the population (0 accepts every class).
func FailureProbabilityByScale(runs []correlate.AttributedRun, bounds []int, classFilter machine.NodeClass) ([]ScaleBucket, error) {
	a := Fold(runs)
	return a.Scaling(bounds, classFilter)
}

// MTTIBucket reports interrupt statistics for a scale bucket.
type MTTIBucket struct {
	Lo, Hi int
	// Runs counts bucket members; Interrupts counts system failures.
	Runs, Interrupts int
	// ExposureHours is the summed wall-clock hours of bucket members.
	ExposureHours float64
	// MTTIHours is ExposureHours/Interrupts (0 when no interrupts):
	// the mean wall-clock time an application at this scale runs before
	// a system interrupt.
	MTTIHours float64
}

// MTTIByScale computes mean-time-to-interrupt per scale bucket.
func MTTIByScale(runs []correlate.AttributedRun, bounds []int, classFilter machine.NodeClass) ([]MTTIBucket, error) {
	a := Fold(runs)
	return a.MTTI(bounds, classFilter)
}

// CategoryShare is one row of the failure-cause breakdown.
type CategoryShare struct {
	Group    taxonomy.Group
	Category taxonomy.Category
	Failures int
	// NodeHoursLost is the node-hours of runs attributed to the category.
	NodeHoursLost float64
}

// ByCategory breaks system failures down by attributed cause, sorted by
// descending failure count (ties by category order).
func ByCategory(runs []correlate.AttributedRun) []CategoryShare {
	a := Fold(runs)
	return a.Categories()
}

// TimeBucket is one step of the production/lost node-hours timeline.
type TimeBucket struct {
	Start time.Time
	// ProducedNodeHours counts node-hours of runs *ending* in the bucket;
	// LostNodeHours the subset attributed to system failures.
	ProducedNodeHours float64
	LostNodeHours     float64
	Runs              int
	SystemFailures    int
}

// Timeline buckets runs by end time into steps of the given width.
func Timeline(runs []correlate.AttributedRun, start, end time.Time, step time.Duration) ([]TimeBucket, error) {
	if step <= 0 {
		return nil, fmt.Errorf("metrics: timeline step %v must be positive", step)
	}
	if !end.After(start) {
		return nil, fmt.Errorf("metrics: timeline range [%v,%v) is empty", start, end)
	}
	n := int(end.Sub(start)/step) + 1
	out := make([]TimeBucket, n)
	for i := range out {
		out[i].Start = start.Add(time.Duration(i) * step)
	}
	for _, r := range runs {
		if r.End.Before(start) || !r.End.Before(end.Add(step)) {
			continue
		}
		i := int(r.End.Sub(start) / step)
		if i < 0 || i >= n {
			continue
		}
		nh := r.NodeHours()
		out[i].Runs++
		out[i].ProducedNodeHours += nh
		if r.Outcome == correlate.OutcomeSystemFailure {
			out[i].LostNodeHours += nh
			out[i].SystemFailures++
		}
	}
	return out, nil
}

// EnergyModel converts lost node-hours into energy. The defaults reflect a
// petascale Cray: roughly 350 W per XE node and 450 W per XK node at load,
// including the interconnect share.
type EnergyModel struct {
	WattsPerXENode float64
	WattsPerXKNode float64
}

// DefaultEnergyModel returns the model used in the experiments.
func DefaultEnergyModel() EnergyModel {
	return EnergyModel{WattsPerXENode: 350, WattsPerXKNode: 450}
}

// Coverage quantifies error-detection coverage against ground truth: of the
// runs that *truly* failed for system reasons, how many did the logs let us
// attribute to the system? The complement is the silent-failure (detection
// gap) rate that impairs hybrid applications.
type Coverage struct {
	TrueSystem int // runs truly system-caused
	Detected   int // ...of which attribution found evidence
	// FalseSystem counts runs attributed to the system whose true cause
	// was not the system (coincidental log activity).
	FalseSystem int
	Attributed  int // total runs attributed to the system
}

// Rate returns Detected/TrueSystem (1 when there were no true failures).
func (c Coverage) Rate() float64 {
	if c.TrueSystem == 0 {
		return 1
	}
	return float64(c.Detected) / float64(c.TrueSystem)
}

// Precision returns Detected/Attributed (1 when nothing was attributed).
func (c Coverage) Precision() float64 {
	if c.Attributed == 0 {
		return 1
	}
	return float64(c.Detected) / float64(c.Attributed)
}

// Add counts one run of the population: whether it truly failed for a
// system reason, and whether attribution blamed the system.
func (c *Coverage) Add(trueSys, attributed bool) {
	if trueSys {
		c.TrueSystem++
		if attributed {
			c.Detected++
		}
	} else if attributed {
		c.FalseSystem++
	}
	if attributed {
		c.Attributed++
	}
}

// InterruptGaps returns the machine-wide time gaps (hours) between
// consecutive system-caused application failures, for distribution fitting
// (exponential vs Weibull burstiness analysis), and the number of
// interrupts: the distinct failure end times, 0 when there are none. Runs
// must not be assumed sorted; failures are ordered by run end time.
// classFilter restricts the population (0 accepts every class). Failures
// ending at the same instant are one interrupt, so there are interrupts-1
// gaps; fewer than two failures yield nil gaps.
func InterruptGaps(runs []correlate.AttributedRun, classFilter machine.NodeClass) (gaps []float64, interrupts int) {
	var times []time.Time
	for _, r := range runs {
		if r.Outcome != correlate.OutcomeSystemFailure {
			continue
		}
		if classFilter != 0 && r.Class != classFilter {
			continue
		}
		times = append(times, r.End)
	}
	if len(times) < 2 {
		return nil, len(times)
	}
	sort.Slice(times, func(i, j int) bool { return times[i].Before(times[j]) })
	gaps = make([]float64, 0, len(times)-1)
	for i := 1; i < len(times); i++ {
		if g := times[i].Sub(times[i-1]).Hours(); g > 0 {
			gaps = append(gaps, g)
		}
	}
	return gaps, len(gaps) + 1
}

// DurationSamples extracts run durations in hours, optionally filtered by
// class, for distribution analysis.
func DurationSamples(runs []correlate.AttributedRun, classFilter machine.NodeClass) []float64 {
	out := make([]float64, 0, len(runs))
	for _, r := range runs {
		if classFilter != 0 && r.Class != classFilter {
			continue
		}
		out = append(out, r.Duration().Hours())
	}
	return out
}

// SizeSamples extracts placement sizes, optionally filtered by class.
func SizeSamples(runs []correlate.AttributedRun, classFilter machine.NodeClass) []float64 {
	out := make([]float64, 0, len(runs))
	for k := range runs {
		r := &runs[k]
		if classFilter != 0 && r.Class != classFilter {
			continue
		}
		out = append(out, float64(r.NumNodes()))
	}
	return out
}
