package whatif

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

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
	// order. The binaries leave it at zero; the invariance tests vary it.
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

// runFeature is what a replay reads of one run, derived once per Simulate:
// every policy's kernel and fold read these 40 bytes, not the 264-byte run.
type runFeature struct {
	apid    uint64
	dur     time.Duration // End - Start
	nt      metrics.Nanos // the run's exact metrics.NodeTime
	nodes   int32
	bucket  int16 // MTTI scale bucket, -1 when outside every bucket
	outcome int8  // measured correlate.Outcome
	// xkUser marks the detection counterfactual's population: hybrid-node
	// (XK) runs the measured attribution blamed on the USER.
	xkUser bool
}

// sysOutcome is correlate.OutcomeSystemFailure as an outcome index.
const sysOutcome = int8(correlate.OutcomeSystemFailure)

// runDelta is one run's contribution to a policy's aggregates. Deltas are
// computed independently (possibly in parallel) and folded sequentially in
// stream order so float accumulation order is fixed.
//
// The fold adds the run's exact node time (runFeature.nt) to the row of
// the final outcome. Realized useful work is the node time of the SUCCESS
// and RECOVERED rows, lost work that of the SYSTEM and RECOVERED rows plus
// lostExtra, consumed machine time that of every row plus consumedExtra. A
// no-op policy has no extras, so its rows are the measured ones exactly.
type runDelta struct {
	lostExtra     float64 // lost node-hours beyond the run's own: failed retries less checkpointed work
	banked        float64 // node-hours preserved in durable checkpoints of unrecovered runs
	ckptOv        float64 // checkpoint-write overhead node-hours
	restartOv     float64 // restart overhead node-hours of successful retries
	consumedExtra float64 // machine node-hours beyond the run's own: overheads, retries, re-executed rework
	delay         float64 // wall-clock hours recovery added to completion
	attempts      int32   // retries attempted
	outcome       int8    // final outcome index (1..4, or idxRecovered)
	recovered     bool
	detected      bool // reclassified by the detection counterfactual
}

// interrupted reports whether the run's final outcome is a system
// interrupt, recovered or not: the runs whose node time is lost work.
func (d *runDelta) interrupted() bool {
	return d.outcome == sysOutcome || d.outcome == idxRecovered
}

// features reads each run once, in parallel, into its runFeature, then
// sums the global MTTI over them serially in stream order: the exposure of
// every run per measured system interrupt, +Inf when there is none. Runs of
// a bucket without interrupts, or outside every bucket, see the global MTTI.
func features(in Input, workers int) ([]runFeature, float64) {
	var bounds []int
	if len(in.MTTI) > 0 {
		bounds = make([]int, len(in.MTTI)+1)
		for i, b := range in.MTTI {
			bounds[i] = b.Lo
		}
		bounds[len(in.MTTI)] = in.MTTI[len(in.MTTI)-1].Hi
	}
	feats := make([]runFeature, len(in.Runs))
	forChunks(len(feats), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			r := &in.Runs[i]
			bucket := sort.SearchInts(bounds, r.NumNodes()+1) - 1
			if bucket >= len(in.MTTI) {
				bucket = -1
			}
			feats[i] = runFeature{
				apid:    r.ApID,
				dur:     r.End.Sub(r.Start),
				nt:      metrics.NodeTime(r),
				nodes:   r.Nodes,
				bucket:  int16(bucket),
				outcome: int8(r.Outcome),
				xkUser:  r.Class == machine.ClassXK && r.Outcome == correlate.OutcomeUserFailure,
			}
		}
	})
	var exposure float64
	var interrupts int
	for i := range feats {
		exposure += feats[i].dur.Hours()
		if feats[i].outcome == sysOutcome {
			interrupts++
		}
	}
	if interrupts == 0 {
		return feats, math.Inf(1)
	}
	return feats, exposure / float64(interrupts)
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

// scalePlan is a policy at one MTTI: the mean time to interrupt (hours) a
// run there is exposed to, and the checkpoint interval the policy keeps.
type scalePlan struct{ mtti, tau float64 }

// sweep is one policy made ready for the kernel: its costs in hours and its
// plan per MTTI bucket, by bucket+1, so plans[0] is the plan at the global
// MTTI for runs outside every bucket.
type sweep struct {
	pol                        Policy
	ckptCost, restart, backoff float64
	plans                      []scalePlan
}

func newSweep(pol Policy, mtti []metrics.MTTIBucket, global float64) sweep {
	s := sweep{
		pol:      pol,
		ckptCost: pol.CheckpointCost.Hours(),
		restart:  pol.RestartCost.Hours(),
		backoff:  pol.RetryBackoff.Hours(),
		plans:    make([]scalePlan, len(mtti)+1),
	}
	for i := range s.plans {
		m := global
		if i > 0 && mtti[i-1].Interrupts > 0 {
			m = mtti[i-1].MTTIHours
		}
		tau, err := intervalHours(pol, m)
		if err != nil {
			// Policies are validated; what fails is an MTTI of 0 (every
			// interrupted run of the bucket took no time): no checkpoints.
			tau = 0
		}
		s.plans[i] = scalePlan{mtti: m, tau: tau}
	}
	return s
}

// run replays one measured run under the policy, writing its delta in place.
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
func (s *sweep) run(f *runFeature, seed int64, d *runDelta) {
	*d = runDelta{outcome: f.outcome}
	// Only detection candidates and interrupted runs draw.
	var rng prng
	if f.xkUser || f.outcome == sysOutcome {
		rng = newPRNG(seed, f.apid)
	}
	// The detection draw is consumed for every candidate run regardless of
	// DetectFraction, so detect-dimension sweeps see aligned retry draws.
	if f.xkUser {
		if u := rng.float64(); u < s.pol.DetectFraction {
			d.outcome = sysOutcome
			d.detected = true
		}
	}

	p := s.plans[f.bucket+1]
	nf := float64(f.nodes)
	dHours := f.dur.Hours()
	var ckptOvH float64 // per-node hours spent writing checkpoints
	var savedH float64  // per-node hours preserved by the last checkpoint
	if p.tau > 0 {
		writes := math.Floor(dHours / p.tau)
		ckptOvH = writes * s.ckptCost
		savedH = writes * p.tau
	}
	d.ckptOv = ckptOvH * nf

	if d.outcome != sysOutcome {
		d.consumedExtra = d.ckptOv
		return
	}

	// A system interrupt: the tail since the last checkpoint is rework.
	reworkH := dHours - savedH
	needH := s.restart + reworkH // wall hours a retry must survive
	var retryLostH, delayH float64
	for i := 0; i < s.pol.RetryLimit; i++ {
		d.attempts++
		delayH += s.backoff
		t := rng.expHours(p.mtti)
		if t >= needH {
			d.recovered = true
			delayH += needH
			d.restartOv = s.restart * nf
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
}

// forChunks calls body over [0, n) in one contiguous chunk per worker and
// returns when every chunk is done.
func forChunks(n, workers int, body func(lo, hi int)) {
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, min(lo+chunk, n))
	}
	wg.Wait()
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
	if len(in.MTTI) > math.MaxInt16 {
		return nil, fmt.Errorf("whatif: %d MTTI buckets exceed the limit of %d", len(in.MTTI), math.MaxInt16)
	}
	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, len(in.Runs)), 1)

	feats, global := features(in, workers)
	deltas := make([]runDelta, len(feats))
	simPolicy := func(pol Policy) PolicyResult {
		s := newSweep(pol, in.MTTI, global)
		forChunks(len(feats), workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				s.run(&feats[i], opts.Seed, &deltas[i])
			}
		})
		return s.fold(feats, deltas, in.MTTI)
	}

	// The baseline ends every run in its measured outcome with no extras:
	// its outcome rows and consumed node-hours are the measured accounting.
	base := simPolicy(Policy{Name: "measured-baseline"})
	rep := &Report{
		Seed:           opts.Seed,
		Runs:           len(in.Runs),
		TotalNodeHours: base.ConsumedNodeHours,
		Measured:       slices.Clone(base.Outcomes),
		Baseline:       base,
	}
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

// fold reduces per-run deltas into a PolicyResult, strictly in stream
// order. Each outcome row's node-hours are its runs' exact node time summed
// and converted once, so they do not depend on the run order.
func (s *sweep) fold(feats []runFeature, deltas []runDelta, mtti []metrics.MTTIBucket) PolicyResult {
	res := PolicyResult{Name: s.pol.Name, Policy: s.pol}
	var counts [numOutcomes]int
	var nodeTime [numOutcomes]metrics.Nanos
	var lostExtra, consumedExtra float64
	byScale := make([]scaleAgg, len(mtti))
	for i := range deltas {
		d, f := &deltas[i], &feats[i]
		counts[d.outcome]++
		nodeTime[d.outcome].Add(f.nt)
		lostExtra += d.lostExtra
		consumedExtra += d.consumedExtra
		res.BankedNodeHours += d.banked
		res.CheckpointOverheadNodeHours += d.ckptOv
		res.RestartOverheadNodeHours += d.restartOv
		res.RecoveryDelayHours += d.delay
		res.RetriesAttempted += int(d.attempts)
		if d.recovered {
			res.RunsRecovered++
		}
		if d.detected {
			res.RunsDetected++
		}
		if f.bucket >= 0 {
			agg := &byScale[f.bucket]
			agg.runs++
			if d.interrupted() {
				agg.interrupts++
				agg.lost.Add(f.nt)
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
	res.ByScale = make([]ScaleRow, len(mtti))
	for i, b := range mtti {
		res.ByScale[i] = ScaleRow{
			Lo: b.Lo, Hi: b.Hi,
			Label:         metrics.ScaleBucket{Lo: b.Lo, Hi: b.Hi}.Label(),
			Runs:          byScale[i].runs,
			Interrupts:    byScale[i].interrupts,
			MTTIHours:     b.MTTIHours,
			TauHours:      s.plans[i+1].tau,
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
