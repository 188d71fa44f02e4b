// Package checkpoint models checkpoint/restart economics on top of the
// measured interrupt rates: the Young and Daly optimal checkpoint
// intervals, the expected fraction of machine time spent on checkpoint
// overhead, rework after failures, and restart cost. The paper's first
// lesson prices the work lost to system failures; this package answers the
// follow-on question every Blue Waters team faced — how often to
// checkpoint, given the MTTI the study measured at each scale.
//
// The package is pure arithmetic over a Params triple (MTTI, checkpoint
// cost, restart cost), all in hours. Two layers build on it: experiment
// E13 uses BuildPlan to turn the by-scale MTTI table into per-scale
// interval recommendations, and the whatif counterfactual simulator uses
// DalyInterval to place checkpoints when replaying the measured run stream
// under a policy (its W3 table prints the interval per scale bucket).
// Keeping both on this one implementation is what makes the planning
// numbers and the simulated charges agree.
package checkpoint

import (
	"fmt"
	"math"
)

// Params describes one application's checkpoint economics. All durations
// are hours; interrupts are modeled as exponential with mean MTTIHours.
type Params struct {
	// MTTIHours is the application-level mean time to interrupt. +Inf is
	// a valid value ("no interrupts ever observed"): the optimal intervals
	// become +Inf too, which callers read as "do not checkpoint".
	MTTIHours float64
	// CheckpointHours is the cost of writing one checkpoint.
	CheckpointHours float64
	// RestartHours is the cost of reading the checkpoint and restarting
	// after a failure.
	RestartHours float64
}

// Validate checks the parameters: MTTI and checkpoint cost must be
// positive (MTTI may be +Inf), restart cost non-negative.
func (p Params) Validate() error {
	if p.MTTIHours <= 0 {
		return fmt.Errorf("checkpoint: MTTI %v must be positive", p.MTTIHours)
	}
	if p.CheckpointHours <= 0 {
		return fmt.Errorf("checkpoint: checkpoint cost %v must be positive", p.CheckpointHours)
	}
	if p.RestartHours < 0 {
		return fmt.Errorf("checkpoint: restart cost %v must be non-negative", p.RestartHours)
	}
	return nil
}

// YoungInterval returns Young's first-order optimal checkpoint interval:
// sqrt(2 * delta * MTTI), with delta the checkpoint cost (Young, "A first
// order approximation to the optimum checkpoint interval", 1974). It is
// the stationary point of the overhead-plus-expected-rework cost when
// delta << MTTI; DalyInterval refines it when that assumption fails.
func YoungInterval(p Params) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	return math.Sqrt(2 * p.CheckpointHours * p.MTTIHours), nil
}

// DalyInterval returns Daly's higher-order optimum (Daly, "A higher order
// estimate of the optimum checkpoint interval for restart dumps", 2006),
// which corrects Young's formula when the checkpoint cost d is not small
// relative to the MTTI M:
//
//	tau = sqrt(2 d M) * (1 + sqrt(d/(2M))/3 + (d/(2M))/9) - d   for d < 2M
//	tau = M                                                     otherwise
//
// The perturbation expansion behind the d < 2M branch loses accuracy as d
// approaches 2M, where Daly's recommendation degenerates to checkpointing
// once per MTTI. An infinite MTTI yields tau = +Inf: with no interrupts
// there is no interval worth paying for.
func DalyInterval(p Params) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	d, m := p.CheckpointHours, p.MTTIHours
	if d >= 2*m {
		return m, nil
	}
	r := math.Sqrt(d / (2 * m))
	return math.Sqrt(2*d*m)*(1+r/3+(d/(2*m))/9) - d, nil
}

// Efficiency estimates the fraction of wall-clock time that produces
// forward progress when checkpointing every tau hours under exponential
// interrupts with the given parameters. It accounts for checkpoint
// overhead, expected rework (work since the last checkpoint, lost at each
// interrupt) and restart cost.
//
// The model: each segment costs tau + delta to execute; an interrupt
// arrives at rate 1/MTTI; on average half a segment plus the restart is
// lost per interrupt. Efficiency = useful / (useful + overhead + loss).
func Efficiency(p Params, tau float64) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if tau <= 0 {
		return 0, fmt.Errorf("checkpoint: interval %v must be positive", tau)
	}
	m := p.MTTIHours
	// Per hour of useful work: checkpoint overhead delta/tau, and
	// interrupt losses (tau/2 rework + restart) every m hours of elapsed
	// time. Expressed as overhead fractions relative to useful time:
	overhead := p.CheckpointHours / tau
	lossPerHour := (tau/2 + p.RestartHours + p.CheckpointHours) / m
	eff := 1 / (1 + overhead + lossPerHour)
	if eff < 0 {
		eff = 0
	}
	return eff, nil
}

// Plan summarizes the checkpoint policy implied by a measured MTTI: both
// optimal intervals, the modeled efficiency at the Daly interval, and the
// unprotected survival probability for a reference-length run: one row of
// experiment E13.
type Plan struct {
	Params
	// YoungHours and DalyHours are the two optimal intervals.
	YoungHours float64
	DalyHours  float64
	// EfficiencyAtDaly is the modeled machine efficiency when using the
	// Daly interval.
	EfficiencyAtDaly float64
	// EfficiencyUnprotected is the expected fraction of runs completing
	// without any checkpointing for a run of ReferenceRunHours.
	EfficiencyUnprotected float64
	// ReferenceRunHours is the run length used for the unprotected
	// comparison.
	ReferenceRunHours float64
}

// BuildPlan computes the full policy summary. referenceRunHours is the
// representative uninterrupted run length for the "no checkpointing"
// comparison (its survival probability under exponential interrupts).
func BuildPlan(p Params, referenceRunHours float64) (Plan, error) {
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	if referenceRunHours <= 0 {
		return Plan{}, fmt.Errorf("checkpoint: reference run length %v must be positive", referenceRunHours)
	}
	young, err := YoungInterval(p)
	if err != nil {
		return Plan{}, err
	}
	daly, err := DalyInterval(p)
	if err != nil {
		return Plan{}, err
	}
	eff, err := Efficiency(p, daly)
	if err != nil {
		return Plan{}, err
	}
	return Plan{
		Params:                p,
		YoungHours:            young,
		DalyHours:             daly,
		EfficiencyAtDaly:      eff,
		EfficiencyUnprotected: math.Exp(-referenceRunHours / p.MTTIHours),
		ReferenceRunHours:     referenceRunHours,
	}, nil
}
