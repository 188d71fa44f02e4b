// Package correlate implements the heart of the study: joining application
// runs (from the ALPS logs) with classified system error events (from the
// syslog/hardware-error archives) to decide, for every run, whether it
// succeeded, failed for user-level reasons, failed because it exceeded its
// batch walltime, or failed because of a system problem — and in the last
// case, which error category is the likely cause.
//
// The join is node-time scoped: a failed run is attributed to the system
// only if a qualifying (non-benign, error-or-critical) event occurred on a
// node of the run's placement, or machine-wide, inside the run's execution
// window extended by a small slack. A temporal-only mode (any qualifying
// event anywhere on the machine) is provided as the naive baseline the
// node-time join is evaluated against.
package correlate

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"logdiver/internal/alps"
	"logdiver/internal/errlog"
	"logdiver/internal/interval"
	"logdiver/internal/machine"
	"logdiver/internal/taxonomy"
	"logdiver/internal/wlm"
)

// Outcome classifies how an application run ended.
type Outcome int

// Outcomes.
const (
	// OutcomeSuccess: exit code 0 and no fatal signal.
	OutcomeSuccess Outcome = iota + 1
	// OutcomeUserFailure: abnormal exit with no supporting system-error
	// evidence (application bug, bad input, user abort).
	OutcomeUserFailure
	// OutcomeWalltime: killed by the batch system at the walltime limit.
	OutcomeWalltime
	// OutcomeSystemFailure: abnormal exit with supporting system-error
	// evidence in the node-time window.
	OutcomeSystemFailure

	numOutcomes // sentinel; keep last
)

// Outcomes returns every outcome once, in declaration order — the row order
// of every outcome breakdown (E2, F2, /v1/outcomes).
func Outcomes() (all [numOutcomes - 1]Outcome) {
	for i := range all {
		all[i] = OutcomeSuccess + Outcome(i)
	}
	return all
}

// String returns the outcome mnemonic.
func (o Outcome) String() string {
	switch o {
	case OutcomeSuccess:
		return "SUCCESS"
	case OutcomeUserFailure:
		return "USER"
	case OutcomeWalltime:
		return "WALLTIME"
	case OutcomeSystemFailure:
		return "SYSTEM"
	default:
		return "OUTCOME(" + strconv.Itoa(int(o)) + ")"
	}
}

// AttributedRun is an application run with its outcome attribution.
type AttributedRun struct {
	alps.AppRun
	Attribution
}

// Attribution is what the join decides about one run, held apart from the
// run so the online pipeline keeps each run once, in its assembler.
type Attribution struct {
	// Class is ClassXK when the placement includes any hybrid node,
	// otherwise ClassXE.
	Class machine.NodeClass
	// Outcome is the attributed outcome.
	Outcome Outcome
	// Cause is the attributed error category for system failures.
	Cause taxonomy.Category
	// Evidence is the earliest qualifying event for system failures.
	Evidence errlog.Event
	// Nodes is the placement's node count, taken at attribution like Class:
	// every reader after the join needs the count, not the ranges.
	Nodes int32
	// HasEvidence reports whether Evidence is populated.
	HasEvidence bool
}

// NumNodes returns the number of nodes the run was placed on.
func (r *AttributedRun) NumNodes() int { return int(r.Nodes) }

// NodeHours returns the node-hours consumed by the run.
func (r *AttributedRun) NodeHours() float64 {
	return float64(r.Nodes) * r.Duration().Hours()
}

// Config tunes the attribution join.
type Config struct {
	// EvidenceWindow extends the evidence search before the run's end.
	// An application dies *when* the error hits it, so causal evidence
	// clusters at the death time; searching the whole execution window
	// would let every unrelated mid-run event explain the failure (the
	// overattribution the A1 ablation quantifies).
	EvidenceWindow time.Duration
	// PostWindow extends the evidence search past the run's end: a node
	// crash is often logged (by the heartbeat monitor) tens of seconds
	// after the application dies.
	PostWindow time.Duration
	// QuiesceMinNodes gates machine-wide *interconnect* events (reroute/
	// warm-swap quiesce): they only qualify as evidence for runs at least
	// this large. A quiesce briefly pauses HSN traffic; small applications
	// ride it out, only tightly coupled runs at scale die.
	QuiesceMinNodes int
	// TemporalOnly disables the placement restriction: any qualifying
	// event anywhere on the machine inside the window counts. This is
	// the naive baseline; it grossly overattributes on a busy machine.
	TemporalOnly bool
	// Jobs, when non-nil, maps batch job IDs to their accounting records
	// and enables walltime-kill detection.
	Jobs map[string]wlm.Job
}

// DefaultConfig returns the windows used throughout the study.
func DefaultConfig() Config {
	return Config{
		EvidenceWindow:  6 * time.Minute,
		PostWindow:      90 * time.Second,
		QuiesceMinNodes: 8192,
	}
}

// Correlator attributes run outcomes against an event index.
type Correlator struct {
	ix  *interval.Index
	top *machine.Topology
	cfg Config
}

// New builds a Correlator. The topology provides node classes for XE/XK
// labeling; the index must contain classified events.
func New(ix *interval.Index, top *machine.Topology, cfg Config) (*Correlator, error) {
	if ix == nil {
		return nil, fmt.Errorf("correlate: nil index")
	}
	if top == nil {
		return nil, fmt.Errorf("correlate: nil topology")
	}
	if cfg.PostWindow < 0 || cfg.EvidenceWindow < 0 {
		return nil, fmt.Errorf("correlate: negative window")
	}
	return &Correlator{ix: ix, top: top, cfg: cfg}, nil
}

// isWalltimeKill reports whether the run's death looks like a batch
// walltime kill: fatal SIGTERM/SIGKILL with the owning job having consumed
// (nearly) its full requested walltime.
func (c *Correlator) isWalltimeKill(run alps.AppRun) bool {
	if c.cfg.Jobs == nil {
		return false
	}
	if run.Signal != 15 && run.Signal != 9 {
		return false
	}
	job, ok := c.cfg.Jobs[run.JobID]
	if !ok || job.Walltime <= 0 {
		return false
	}
	const tolerance = 2 * time.Minute
	return job.UsedWalltime >= job.Walltime-tolerance
}

// Attribute classifies one run.
func (c *Correlator) Attribute(run alps.AppRun) AttributedRun {
	out := AttributedRun{AppRun: run, Attribution: Attribution{Class: machine.ClassXE, Nodes: int32(run.Placement.Len())}}
	if c.top.AnyXK(run.Placement) { // any XK node makes the run hybrid
		out.Class = machine.ClassXK
	}
	if !run.Failed() {
		out.Outcome = OutcomeSuccess
		return out
	}
	from := run.End.Add(-c.cfg.EvidenceWindow)
	if from.Before(run.Start) {
		// Short runs search their whole execution window.
		from = run.Start
	}
	to := run.End.Add(c.cfg.PostWindow)
	// The index holds only qualifying events (interval.Qualifying).
	quiesce := out.NumNodes() >= c.cfg.QuiesceMinNodes
	keep := func(e errlog.Event) bool {
		return quiesce || !e.IsSystemWide() || e.Category.Group() != taxonomy.GroupInterconnect
	}
	var ev errlog.Event
	var ok bool
	if c.cfg.TemporalOnly {
		ev, ok = c.ix.FirstAnywhere(from, to, keep)
	} else {
		ev, ok = c.ix.FirstInWindow(run.Placement, from, to, keep)
	}
	if ok {
		out.Outcome = OutcomeSystemFailure
		out.Cause = ev.Category
		out.Evidence = ev
		out.HasEvidence = true
		return out
	}
	if c.isWalltimeKill(run) {
		out.Outcome = OutcomeWalltime
		return out
	}
	out.Outcome = OutcomeUserFailure
	return out
}

// AttributeAll classifies every run, preserving order.
func (c *Correlator) AttributeAll(runs []alps.AppRun) []AttributedRun {
	out := make([]AttributedRun, len(runs))
	for i, r := range runs {
		out[i] = c.Attribute(r)
	}
	return out
}

// AttributeAllParallel classifies every run using the given number of
// worker goroutines, preserving order. The correlator is read-only during
// attribution, so workers share it safely. workers < 2 degrades to the
// sequential path.
func (c *Correlator) AttributeAllParallel(runs []alps.AppRun, workers int) []AttributedRun {
	if workers < 2 || len(runs) < 2*workers {
		return c.AttributeAll(runs)
	}
	out := make([]AttributedRun, len(runs))
	chunk := (len(runs) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(runs) {
			break
		}
		hi := lo + chunk
		if hi > len(runs) {
			hi = len(runs)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				out[i] = c.Attribute(runs[i])
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}
