package metrics

import (
	"fmt"
	"sort"

	"logdiver/internal/correlate"
	"logdiver/internal/machine"
	"logdiver/internal/stats"
	"logdiver/internal/taxonomy"
)

// The reference walks: the float aggregation the package did before the
// exact Aggregate, kept as the oracle FuzzAggregateLaws renders against.
// Counts must match exactly, hours within 1e-12 relative.

// refOutcomes aggregates runs by outcome.
func refOutcomes(runs []correlate.AttributedRun) OutcomeBreakdown {
	b := OutcomeBreakdown{
		Counts:    make(map[correlate.Outcome]int, 4),
		NodeHours: make(map[correlate.Outcome]float64, 4),
	}
	for _, r := range runs {
		nh := r.NodeHours()
		b.Total++
		b.TotalNodeHours += nh
		b.Counts[r.Outcome]++
		b.NodeHours[r.Outcome] += nh
	}
	return b
}

// refFailureProbabilityByScale buckets runs by placement size and estimates
// P(system failure) per bucket. bounds must be ascending; bucket i covers
// [bounds[i], bounds[i+1]). Runs outside every bucket are ignored. classFilter
// restricts the population (0 accepts every class).
func refFailureProbabilityByScale(runs []correlate.AttributedRun, bounds []int, classFilter machine.NodeClass) ([]ScaleBucket, error) {
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
	for k := range runs {
		r := &runs[k]
		if classFilter != 0 && r.Class != classFilter {
			continue
		}
		n := r.NumNodes()
		i := sort.SearchInts(bounds, n+1) - 1
		if i < 0 || i >= len(buckets) {
			continue
		}
		buckets[i].Runs++
		if r.Outcome == correlate.OutcomeSystemFailure {
			buckets[i].Failures++
		}
	}
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

// refMTTIByScale computes mean-time-to-interrupt per scale bucket.
func refMTTIByScale(runs []correlate.AttributedRun, bounds []int, classFilter machine.NodeClass) ([]MTTIBucket, error) {
	if len(bounds) < 2 {
		return nil, fmt.Errorf("metrics: need at least 2 bucket bounds, got %d", len(bounds))
	}
	buckets := make([]MTTIBucket, len(bounds)-1)
	for i := range buckets {
		buckets[i] = MTTIBucket{Lo: bounds[i], Hi: bounds[i+1]}
	}
	for k := range runs {
		r := &runs[k]
		if classFilter != 0 && r.Class != classFilter {
			continue
		}
		i := sort.SearchInts(bounds, r.NumNodes()+1) - 1
		if i < 0 || i >= len(buckets) {
			continue
		}
		buckets[i].Runs++
		buckets[i].ExposureHours += r.Duration().Hours()
		if r.Outcome == correlate.OutcomeSystemFailure {
			buckets[i].Interrupts++
		}
	}
	for i := range buckets {
		if buckets[i].Interrupts > 0 {
			buckets[i].MTTIHours = buckets[i].ExposureHours / float64(buckets[i].Interrupts)
		}
	}
	return buckets, nil
}

// refByCategory breaks system failures down by attributed cause, sorted by
// descending failure count (ties by category order).
func refByCategory(runs []correlate.AttributedRun) []CategoryShare {
	byCat := make(map[taxonomy.Category]*CategoryShare)
	for _, r := range runs {
		if r.Outcome != correlate.OutcomeSystemFailure {
			continue
		}
		s := byCat[r.Cause]
		if s == nil {
			s = &CategoryShare{Group: r.Cause.Group(), Category: r.Cause}
			byCat[r.Cause] = s
		}
		s.Failures++
		s.NodeHoursLost += r.NodeHours()
	}
	out := make([]CategoryShare, 0, len(byCat))
	for _, s := range byCat {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Failures != out[j].Failures {
			return out[i].Failures > out[j].Failures
		}
		return out[i].Category < out[j].Category
	})
	return out
}
