package correlate

// Property-based tests: attribution invariants that must hold for any
// random mix of runs and events.

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"logdiver/internal/alps"
	"logdiver/internal/errlog"
	"logdiver/internal/interval"
	"logdiver/internal/machine"
	"logdiver/internal/taxonomy"
)

// randomScenario builds a random event set and run set on the small
// topology.
func randomScenario(seed int64) ([]errlog.Event, []alps.AppRun) {
	rng := rand.New(rand.NewSource(seed))
	cats := taxonomy.Categories()
	nEvents := rng.Intn(200)
	events := make([]errlog.Event, nEvents)
	for i := range events {
		node := machine.NodeID(rng.Intn(200))
		if rng.Intn(10) == 0 {
			node = errlog.SystemWide
		}
		events[i] = errlog.Event{
			Time:     base.Add(time.Duration(rng.Intn(7*86400)) * time.Second),
			Node:     node,
			Category: cats[rng.Intn(len(cats))],
			Severity: taxonomy.Severity(1 + rng.Intn(4)),
		}
	}
	nRuns := 1 + rng.Intn(100)
	runs := make([]alps.AppRun, nRuns)
	for i := range runs {
		n := 1 + rng.Intn(32)
		nodes := make([]machine.NodeID, n)
		for j := range nodes {
			nodes[j] = machine.NodeID(rng.Intn(200))
		}
		start := base.Add(time.Duration(rng.Intn(6*86400)) * time.Second)
		var exit, sig int
		switch rng.Intn(3) {
		case 1:
			exit = 1 + rng.Intn(255)
		case 2:
			sig = 1 + rng.Intn(31)
		}
		runs[i] = alps.AppRun{
			ApID:      uint64(i + 1),
			Placement: machine.PlacementOf(nodes),
			Start:     start,
			End:       start.Add(time.Duration(1+rng.Intn(86400)) * time.Second),
			ExitCode:  exit,
			Signal:    sig,
		}
	}
	return events, runs
}

func TestAttributionInvariantsProperty(t *testing.T) {
	top, err := machine.New(machine.Small())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		events, runs := randomScenario(seed)
		c, err := New(interval.NewIndex(events), top, DefaultConfig())
		if err != nil {
			return false
		}
		attr := c.AttributeAll(runs)
		if len(attr) != len(runs) {
			return false
		}
		for i, r := range attr {
			// Identity preserved.
			if r.ApID != runs[i].ApID {
				return false
			}
			// Clean exits are successes; dirty exits never are.
			if !runs[i].Failed() && r.Outcome != OutcomeSuccess {
				return false
			}
			if runs[i].Failed() && r.Outcome == OutcomeSuccess {
				return false
			}
			// Evidence appears exactly on system failures.
			if (r.Outcome == OutcomeSystemFailure) != r.HasEvidence {
				return false
			}
			if r.HasEvidence {
				// Evidence must be qualifying and inside the window.
				if !interval.Qualifying(r.Evidence) {
					return false
				}
				from := r.End.Add(-DefaultConfig().EvidenceWindow)
				if from.Before(r.Start) {
					from = r.Start
				}
				to := r.End.Add(DefaultConfig().PostWindow)
				if r.Evidence.Time.Before(from) || r.Evidence.Time.After(to) {
					return false
				}
				// Node-scoped evidence must be on the placement.
				if !r.Evidence.IsSystemWide() {
					onPlacement := false
					for _, n := range r.Placement.Nodes() {
						if n == r.Evidence.Node {
							onPlacement = true
							break
						}
					}
					if !onPlacement {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestParallelMatchesSequentialProperty: AttributeAllParallel must agree
// with AttributeAll exactly for every worker count.
func TestParallelMatchesSequentialProperty(t *testing.T) {
	top, err := machine.New(machine.Small())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, workersSeed uint8) bool {
		events, runs := randomScenario(seed)
		c, err := New(interval.NewIndex(events), top, DefaultConfig())
		if err != nil {
			return false
		}
		workers := int(workersSeed%8) + 1
		seq := c.AttributeAll(runs)
		par := c.AttributeAllParallel(runs, workers)
		if len(seq) != len(par) {
			return false
		}
		for i := range seq {
			if seq[i].ApID != par[i].ApID || seq[i].Outcome != par[i].Outcome ||
				seq[i].Cause != par[i].Cause || seq[i].HasEvidence != par[i].HasEvidence {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestTemporalOnlySupersetProperty: every run the node-time join attributes
// to the system is also attributed by the temporal-only baseline (the
// baseline relaxes the placement constraint, so its attribution set is a
// superset).
func TestTemporalOnlySupersetProperty(t *testing.T) {
	top, err := machine.New(machine.Small())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		events, runs := randomScenario(seed)
		ix := interval.NewIndex(events)
		joined, err := New(ix, top, DefaultConfig())
		if err != nil {
			return false
		}
		cfg := DefaultConfig()
		cfg.TemporalOnly = true
		baseline, err := New(ix, top, cfg)
		if err != nil {
			return false
		}
		a := joined.AttributeAll(runs)
		b := baseline.AttributeAll(runs)
		for i := range a {
			if a[i].Outcome == OutcomeSystemFailure && b[i].Outcome != OutcomeSystemFailure {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestWindowMonotonicityProperty: growing the evidence window never
// un-attributes a run.
func TestWindowMonotonicityProperty(t *testing.T) {
	top, err := machine.New(machine.Small())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		events, runs := randomScenario(seed)
		ix := interval.NewIndex(events)
		narrow := DefaultConfig()
		narrow.EvidenceWindow = time.Minute
		wide := DefaultConfig()
		wide.EvidenceWindow = 4 * time.Hour
		cn, err := New(ix, top, narrow)
		if err != nil {
			return false
		}
		cw, err := New(ix, top, wide)
		if err != nil {
			return false
		}
		a := cn.AttributeAll(runs)
		b := cw.AttributeAll(runs)
		for i := range a {
			if a[i].Outcome == OutcomeSystemFailure && b[i].Outcome != OutcomeSystemFailure {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
