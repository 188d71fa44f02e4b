package whatif

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"logdiver/internal/checkpoint"
	"logdiver/internal/correlate"
	"logdiver/internal/machine"
	"logdiver/internal/metrics"
)

// Input is the analyzed evidence the simulator replays: the attributed
// run stream and the measured MTTI-by-scale distribution (the same view
// the snapshot store serves). The runs are never mutated.
type Input struct {
	Runs []correlate.AttributedRun
	MTTI []metrics.MTTIBucket
}

// Options controls a simulation.
type Options struct {
	// Seed feeds every random draw. Two simulations with equal inputs,
	// policies and seed produce identical reports, at any parallelism.
	Seed int64
	// Parallelism bounds the worker count (<=0 means GOMAXPROCS). It
	// affects wall-clock time only, never results: per-run randomness is
	// derived from (Seed, ApID) and per-run deltas are folded in stream
	// order.
	Parallelism int
}

// RecoveredOutcome labels runs whose measured system failure the
// simulated policy turned into a completion.
const RecoveredOutcome = "RECOVERED"

// outcome indices inside per-policy accumulators: 1..4 mirror
// correlate.Outcome, 5 is the simulator-only RECOVERED state.
const (
	idxRecovered = 5
	numOutcomes  = 6
)

// outcomeLabels lists the report's outcome rows in render order.
var outcomeLabels = []struct {
	idx   int
	label string
}{
	{int(correlate.OutcomeSuccess), correlate.OutcomeSuccess.String()},
	{int(correlate.OutcomeUserFailure), correlate.OutcomeUserFailure.String()},
	{int(correlate.OutcomeWalltime), correlate.OutcomeWalltime.String()},
	{int(correlate.OutcomeSystemFailure), correlate.OutcomeSystemFailure.String()},
	{idxRecovered, RecoveredOutcome},
}

// prng is a splitmix64 generator. Each simulated run gets its own stream
// derived from (seed, apid), which is what makes results independent of
// both run order and parallelism.
type prng struct{ state uint64 }

func newPRNG(seed int64, apid uint64) prng {
	p := prng{state: uint64(seed) ^ (apid * 0x9E3779B97F4A7C15)}
	// Two warm-up rounds decorrelate nearby (seed, apid) pairs.
	p.next()
	p.next()
	return p
}

func (p *prng) next() uint64 {
	p.state += 0x9E3779B97F4A7C15
	z := p.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1).
func (p *prng) float64() float64 {
	return float64(p.next()>>11) / (1 << 53)
}

// expHours draws an exponential interrupt time with mean m hours.
// m may be +Inf (no measured interrupts), in which case the draw is
// consumed for stream alignment and +Inf is returned.
func (p *prng) expHours(m float64) float64 {
	u := p.float64()
	if math.IsInf(m, 1) {
		return math.Inf(1)
	}
	return -math.Log(1-u) * m
}

// runDelta is one run's contribution to a policy's aggregates. Deltas are
// computed independently (possibly in parallel) and folded sequentially in
// stream order so float accumulation order is fixed.
//
// The run's own measured node time is nt, an exact metrics.NodeTime: the
// fold adds it to the row of the final outcome. Realized useful work is
// the node time of the SUCCESS and RECOVERED rows, lost work that of the
// SYSTEM and RECOVERED rows plus lostExtra, consumed machine time that of
// every row plus consumedExtra. A no-op policy has no extras, so its rows
// are the measured ones exactly (see measuredRows).
type runDelta struct {
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
func (d *runDelta) interrupted() bool {
	return d.outcome == int(correlate.OutcomeSystemFailure) || d.outcome == idxRecovered
}

// mttiTable answers "what MTTI does a run of n nodes see" from the
// measured distribution, falling back to the global MTTI for buckets
// without interrupts and to +Inf when the stream has no interrupts at all.
type mttiTable struct {
	bounds  []int
	buckets []metrics.MTTIBucket
	global  float64
}

func newMTTITable(in Input) mttiTable {
	t := mttiTable{buckets: in.MTTI, global: math.Inf(1)}
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
func (t mttiTable) bucketOf(n int) int {
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
func (t mttiTable) mttiAt(n int) float64 {
	if i := t.bucketOf(n); i >= 0 && t.buckets[i].Interrupts > 0 {
		return t.buckets[i].MTTIHours
	}
	return t.global
}

// intervalHours resolves a policy's checkpoint interval for a run exposed
// to MTTI m. 0 means "do not checkpoint" (either by policy or because the
// Daly optimum diverges when interrupts are absent).
func intervalHours(pol Policy, m float64) (float64, error) {
	switch pol.Checkpoint {
	case CheckpointNone:
		return 0, nil
	case CheckpointFixed:
		return pol.CheckpointInterval.Hours(), nil
	case CheckpointDaly:
		tau, err := checkpoint.DalyInterval(checkpoint.Params{
			MTTIHours:       m,
			CheckpointHours: pol.CheckpointCost.Hours(),
			RestartHours:    pol.RestartCost.Hours(),
		})
		if err != nil {
			return 0, err
		}
		if math.IsInf(tau, 1) {
			return 0, nil
		}
		return tau, nil
	default:
		return 0, fmt.Errorf("whatif: unknown checkpoint kind %d", int(pol.Checkpoint))
	}
}

// simulateRun replays one measured run under one policy.
//
// Event model, in order:
//
//  1. Detection counterfactual: an XK run attributed to the USER may be
//     reclassified as a detected system interrupt with probability
//     DetectFraction.
//  2. Checkpointing: every run with an interval tau pays
//     floor(D/tau) checkpoint writes; an interrupted run preserves the
//     work before its last checkpoint and only reworks the tail.
//  3. Retry/requeue: each retry waits RetryBackoff, pays RestartCost and
//     re-executes the rework; it survives if an exponential interrupt
//     draw with the run's measured MTTI outlives restart+rework.
//
// The no-op policy takes none of these branches and reproduces the
// measured accounting bit for bit.
func simulateRun(r *correlate.AttributedRun, pol Policy, seed int64, mtti mttiTable) runDelta {
	n := r.NumNodes()
	nf := float64(n)
	dHours := r.Duration().Hours()
	d := runDelta{bucket: mtti.bucketOf(n), outcome: int(r.Outcome), nt: metrics.NodeTime(r)}

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
		// Policies are validated before simulation; the only residual
		// failure is a non-positive MTTI, which mttiAt never produces.
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
	// The run's own node time is lost (rework is its tail, dHours-savedH),
	// less the checkpointed work, plus the failed retries.
	d.lostExtra = (retryLostH - savedH) * nf
	if d.recovered {
		d.outcome = idxRecovered
		d.delay = delayH
	} else {
		d.banked = savedH * nf
	}
	d.consumedExtra = d.ckptOv + d.restartOv + retryLostH*nf
	if d.recovered {
		// The successful retry re-executes the rework tail.
		d.consumedExtra += reworkH * nf
	}
	return d
}

// Simulate replays the measured stream under each policy (plus the
// implicit measured baseline) and prices the differences. It is a pure
// function of (in, policies, opts.Seed).
func Simulate(in Input, policies []Policy, opts Options) (*Report, error) {
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

	mtti := newMTTITable(in)
	measured := metrics.Outcomes(in.Runs)
	rep := &Report{
		Seed:           opts.Seed,
		Runs:           len(in.Runs),
		Measured:       measuredRows(measured),
		TotalNodeHours: measured.TotalNodeHours,
	}

	deltas := make([]runDelta, len(in.Runs))
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
					deltas[i] = simulateRun(&in.Runs[i], pol, opts.Seed, mtti)
				}
			}(lo, hi)
		}
		wg.Wait()
		return foldPolicy(pol, deltas, mtti)
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

// measuredRows renders the measured outcome breakdown in the simulator's
// row shape. The breakdown and foldPolicy's outcome rows are one
// accumulation: each row's node-hours are its runs' exact metrics.NodeTime
// summed and converted once, so the no-op replay, which ends every run in
// its measured outcome, renders these rows byte for byte in any run order.
func measuredRows(b metrics.OutcomeBreakdown) []OutcomeRow {
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

// foldPolicy reduces per-run deltas into a PolicyResult, strictly in
// stream order.
func foldPolicy(pol Policy, deltas []runDelta, mtti mttiTable) PolicyResult {
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
			Label:         bucketLabel(b.Lo, b.Hi),
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

// scaleAgg accumulates one W3 bucket during the fold: lost work is the
// interrupted runs' node time plus their extras, as in the totals.
type scaleAgg struct {
	runs, interrupts, recovered int
	lost                        metrics.Nanos
	lostExtra                   float64
}

// bucketLabel matches metrics.ScaleBucket.Label.
func bucketLabel(lo, hi int) string {
	if hi-lo == 1 {
		return fmt.Sprintf("%d", lo)
	}
	return fmt.Sprintf("%d-%d", lo, hi-1)
}

// SilentCandidates counts the detection counterfactual's target
// population: hybrid-node (XK) runs the measured attribution blamed on
// the USER. DetectFraction draws against exactly this population.
func SilentCandidates(runs []correlate.AttributedRun) int {
	var n int
	for _, r := range runs {
		if r.Class == machine.ClassXK && r.Outcome == correlate.OutcomeUserFailure {
			n++
		}
	}
	return n
}
