package whatif

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"logdiver/internal/correlate"
	"logdiver/internal/machine"
	"logdiver/internal/metrics"
)

// This file is the simulator's reference: the per-policy replay over the
// 264-byte runs, the serial exposure walk behind the global MTTI and the
// measured rows from a metrics.Outcomes fold, as they were before the
// kernel read per-run features. TestSimulateMatchesReference and
// FuzzSimulateMatchesReference hold Simulate to it byte for byte. It
// shares only the PRNG and the interval math with the product.

// refDelta is one run's contribution to a policy's aggregates.
type refDelta struct {
	outcome       int           // final outcome index (1..4, or idxRecovered)
	nt            metrics.Nanos // the run's measured node time
	lostExtra     float64       // lost node-hours beyond the run's own: failed retries less checkpointed work
	banked        float64       // node-hours preserved in durable checkpoints of unrecovered runs
	ckptOv        float64       // checkpoint-write overhead node-hours
	restartOv     float64       // restart overhead node-hours of successful retries
	consumedExtra float64       // machine node-hours beyond the run's own: overheads, retries, re-executed rework
	delay         float64       // wall-clock hours recovery added to completion
	bucket        int           // MTTI scale bucket, -1 when outside every bucket
	attempts      int           // retries attempted
	recovered     bool
	detected      bool // reclassified by the detection counterfactual
}

// interrupted reports whether the run's final outcome is a system
// interrupt, recovered or not: the runs whose node time is lost work.
func (d *refDelta) interrupted() bool {
	return d.outcome == int(correlate.OutcomeSystemFailure) || d.outcome == idxRecovered
}

// refMTTITable answers "what MTTI does a run of n nodes see" from the
// measured distribution, falling back to the global MTTI for buckets
// without interrupts and to +Inf when the stream has no interrupts at all.
type refMTTITable struct {
	bounds  []int
	buckets []metrics.MTTIBucket
	global  float64
}

func newRefMTTITable(in Input) refMTTITable {
	t := refMTTITable{buckets: in.MTTI, global: math.Inf(1)}
	if len(in.MTTI) > 0 {
		t.bounds = make([]int, len(in.MTTI)+1)
		for i, b := range in.MTTI {
			t.bounds[i] = b.Lo
		}
		t.bounds[len(in.MTTI)] = in.MTTI[len(in.MTTI)-1].Hi
	}
	var exposure float64
	var interrupts int
	for _, r := range in.Runs {
		exposure += r.Duration().Hours()
		if r.Outcome == correlate.OutcomeSystemFailure {
			interrupts++
		}
	}
	if interrupts > 0 {
		t.global = exposure / float64(interrupts)
	}
	return t
}

// bucketOf returns the scale-bucket index for an n-node run (-1: none).
func (t refMTTITable) bucketOf(n int) int {
	if len(t.bounds) == 0 {
		return -1
	}
	i := sort.SearchInts(t.bounds, n+1) - 1
	if i < 0 || i >= len(t.buckets) {
		return -1
	}
	return i
}

// mttiAt returns the MTTI (hours) a run of n nodes is exposed to.
func (t refMTTITable) mttiAt(n int) float64 {
	if i := t.bucketOf(n); i >= 0 && t.buckets[i].Interrupts > 0 {
		return t.buckets[i].MTTIHours
	}
	return t.global
}

// refSimulateRun replays one measured run under one policy.
func refSimulateRun(r *correlate.AttributedRun, pol Policy, seed int64, mtti refMTTITable) refDelta {
	n := r.NumNodes()
	nf := float64(n)
	dHours := r.Duration().Hours()
	d := refDelta{bucket: mtti.bucketOf(n), outcome: int(r.Outcome), nt: metrics.NodeTime(r)}

	rng := newPRNG(seed, r.ApID)
	// The detection draw is consumed for every candidate run regardless of
	// DetectFraction, so detect-dimension sweeps see aligned retry draws.
	if r.Class == machine.ClassXK && r.Outcome == correlate.OutcomeUserFailure {
		if u := rng.float64(); u < pol.DetectFraction {
			d.outcome = int(correlate.OutcomeSystemFailure)
			d.detected = true
		}
	}

	m := mtti.mttiAt(n)
	tau, err := intervalHours(pol, m)
	if err != nil {
		tau = 0
	}
	ckptCost := pol.CheckpointCost.Hours()
	var ckptOvH float64 // per-node hours spent writing checkpoints
	var savedH float64  // per-node hours preserved by the last checkpoint
	if tau > 0 {
		writes := math.Floor(dHours / tau)
		ckptOvH = writes * ckptCost
		savedH = writes * tau
	}
	d.ckptOv = ckptOvH * nf

	if d.outcome != int(correlate.OutcomeSystemFailure) {
		d.consumedExtra = d.ckptOv
		return d
	}

	// A system interrupt: the tail since the last checkpoint is rework.
	reworkH := dHours - savedH
	restartH := pol.RestartCost.Hours()
	needH := restartH + reworkH // wall hours a retry must survive
	backoffH := pol.RetryBackoff.Hours()
	var retryLostH, delayH float64
	for i := 0; i < pol.RetryLimit; i++ {
		d.attempts++
		delayH += backoffH
		t := rng.expHours(m)
		if t >= needH {
			d.recovered = true
			delayH += needH
			d.restartOv = restartH * nf
			break
		}
		retryLostH += t
		delayH += t
	}
	d.lostExtra = (retryLostH - savedH) * nf
	if d.recovered {
		d.outcome = idxRecovered
		d.delay = delayH
	} else {
		d.banked = savedH * nf
	}
	d.consumedExtra = d.ckptOv + d.restartOv + retryLostH*nf
	if d.recovered {
		d.consumedExtra += reworkH * nf
	}
	return d
}

// referenceSimulate is Simulate as the reference computes it.
func referenceSimulate(in Input, policies []Policy, opts Options) (*Report, error) {
	if len(policies) > MaxPolicies {
		return nil, fmt.Errorf("whatif: %d policies exceed the limit of %d", len(policies), MaxPolicies)
	}
	names := map[string]bool{}
	for _, p := range policies {
		if err := p.Validate(); err != nil {
			return nil, err
		}
		if names[p.Name] {
			return nil, fmt.Errorf("whatif: duplicate policy name %q", p.Name)
		}
		names[p.Name] = true
	}
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(in.Runs) {
		workers = max(len(in.Runs), 1)
	}

	mtti := newRefMTTITable(in)
	measured := metrics.Outcomes(in.Runs)
	rep := &Report{
		Seed:           opts.Seed,
		Runs:           len(in.Runs),
		Measured:       refMeasuredRows(measured),
		TotalNodeHours: measured.TotalNodeHours,
	}

	deltas := make([]refDelta, len(in.Runs))
	simPolicy := func(pol Policy) PolicyResult {
		var wg sync.WaitGroup
		chunk := (len(in.Runs) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := min(lo+chunk, len(in.Runs))
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					deltas[i] = refSimulateRun(&in.Runs[i], pol, opts.Seed, mtti)
				}
			}(lo, hi)
		}
		wg.Wait()
		return refFoldPolicy(pol, deltas, mtti)
	}

	rep.Baseline = simPolicy(Policy{Name: "measured-baseline"})
	for _, pol := range policies {
		res := simPolicy(pol)
		res.SavedNodeHours = rep.Baseline.LostNodeHours - res.LostNodeHours
		res.NetSavedNodeHours = res.SavedNodeHours - res.CheckpointOverheadNodeHours - res.RestartOverheadNodeHours
		for i := range res.ByScale {
			res.ByScale[i].SavedNodeHours = rep.Baseline.ByScale[i].LostNodeHours - res.ByScale[i].LostNodeHours
		}
		rep.Policies = append(rep.Policies, res)
	}
	return rep, nil
}

// refMeasuredRows renders the measured outcome breakdown in the
// simulator's row shape.
func refMeasuredRows(b metrics.OutcomeBreakdown) []OutcomeRow {
	rows := make([]OutcomeRow, len(outcomeLabels))
	for i, o := range outcomeLabels {
		rows[i] = OutcomeRow{Outcome: o.label}
		if o.idx != idxRecovered {
			rows[i].Runs = b.Counts[correlate.Outcome(o.idx)]
			rows[i].NodeHours = b.NodeHours[correlate.Outcome(o.idx)]
		}
	}
	return rows
}

// refFoldPolicy reduces per-run deltas into a PolicyResult, strictly in
// stream order.
func refFoldPolicy(pol Policy, deltas []refDelta, mtti refMTTITable) PolicyResult {
	res := PolicyResult{Name: pol.Name, Policy: pol}
	var counts [numOutcomes]int
	var nodeTime [numOutcomes]metrics.Nanos
	var lostExtra, consumedExtra float64
	byScale := make([]scaleAgg, len(mtti.buckets))
	for i := range deltas {
		d := &deltas[i]
		counts[d.outcome]++
		nodeTime[d.outcome].Add(d.nt)
		lostExtra += d.lostExtra
		consumedExtra += d.consumedExtra
		res.BankedNodeHours += d.banked
		res.CheckpointOverheadNodeHours += d.ckptOv
		res.RestartOverheadNodeHours += d.restartOv
		res.RecoveryDelayHours += d.delay
		res.RetriesAttempted += d.attempts
		if d.recovered {
			res.RunsRecovered++
		}
		if d.detected {
			res.RunsDetected++
		}
		if d.bucket >= 0 {
			agg := &byScale[d.bucket]
			agg.runs++
			if d.interrupted() {
				agg.interrupts++
				agg.lost.Add(d.nt)
				agg.lostExtra += d.lostExtra
			}
			if d.recovered {
				agg.recovered++
			}
		}
	}
	sum := func(idx ...int) metrics.Nanos {
		var n metrics.Nanos
		for _, i := range idx {
			n.Add(nodeTime[i])
		}
		return n
	}
	success, system := int(correlate.OutcomeSuccess), int(correlate.OutcomeSystemFailure)
	res.UsefulNodeHours = sum(success, idxRecovered).Hours()
	res.LostNodeHours = sum(system, idxRecovered).Hours() + lostExtra
	var all metrics.Nanos
	for i := range nodeTime {
		all.Add(nodeTime[i])
	}
	res.ConsumedNodeHours = all.Hours() + consumedExtra
	if res.ConsumedNodeHours > 0 {
		res.GoodputFraction = res.UsefulNodeHours / res.ConsumedNodeHours
	}
	res.Outcomes = make([]OutcomeRow, len(outcomeLabels))
	for i, o := range outcomeLabels {
		res.Outcomes[i] = OutcomeRow{Outcome: o.label, Runs: counts[o.idx], NodeHours: nodeTime[o.idx].Hours()}
	}
	res.ByScale = make([]ScaleRow, len(mtti.buckets))
	for i, b := range mtti.buckets {
		m := mtti.global
		if b.Interrupts > 0 {
			m = b.MTTIHours
		}
		tau, err := intervalHours(pol, m)
		if err != nil {
			tau = 0
		}
		res.ByScale[i] = ScaleRow{
			Lo: b.Lo, Hi: b.Hi,
			Label:         refBucketLabel(b.Lo, b.Hi),
			Runs:          byScale[i].runs,
			Interrupts:    byScale[i].interrupts,
			MTTIHours:     b.MTTIHours,
			TauHours:      tau,
			RunsRecovered: byScale[i].recovered,
			LostNodeHours: byScale[i].lost.Hours() + byScale[i].lostExtra,
		}
	}
	return res
}

// refBucketLabel renders bucket bounds as metrics.ScaleBucket.Label does.
func refBucketLabel(lo, hi int) string {
	if hi-lo == 1 {
		return fmt.Sprintf("%d", lo)
	}
	return fmt.Sprintf("%d-%d", lo, hi-1)
}
