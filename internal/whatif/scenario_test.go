package whatif

import (
	"encoding/json"
	"fmt"
	"strconv"
	"testing"
	"time"

	"logdiver/internal/correlate"
	"logdiver/internal/metrics"
)

// The scenario suite follows the hypothesis-harness discipline: every
// hypothesis varies exactly one dimension, replicates across seeds, and
// asserts the preconditions that make it falsifiable on this fixture.

var scenarioSeeds = []int64{3, 9}

// requireInterrupts is the shared precondition for recovery hypotheses.
func requireInterrupts(f *fixture) error {
	b := metrics.Outcomes(f.res.Runs)
	if n := b.Counts[correlate.OutcomeSystemFailure]; n < 10 {
		return fmt.Errorf("fixture has %d system failures; need >= 10", n)
	}
	return nil
}

// TestHypothesisRetryLimitMonotone: raising the retry limit can only
// recover more runs. With per-run (seed, apid) draws the attempt
// sequences are shared prefixes, so the recovered set grows pointwise.
func TestHypothesisRetryLimitMonotone(t *testing.T) {
	f := getFixture(t)
	limits := []int{0, 1, 2, 4}
	recovered := map[hypothesisCase]int{}
	attempts := map[hypothesisCase]int{}
	values := make([]string, len(limits))
	for i, l := range limits {
		values[i] = strconv.Itoa(l)
	}
	runHypothesis(t, hypothesis{
		Name:      "retry-limit-monotone",
		Dimension: "retry-limit",
		Values:    values,
		Seeds:     scenarioSeeds,
		Precondition: func(c hypothesisCase) error {
			return requireInterrupts(f)
		},
		Check: func(c hypothesisCase) error {
			rep := mustSimulate(t, f.input, []Policy{retryPolicy("p", limits[c.Index])}, Options{Seed: c.Seed})
			p := rep.Policies[0]
			recovered[c] = p.RunsRecovered
			attempts[c] = p.RetriesAttempted
			if limits[c.Index] == 0 {
				if p.RunsRecovered != 0 || p.RetriesAttempted != 0 {
					return fmt.Errorf("retry-limit 0 recovered %d with %d attempts", p.RunsRecovered, p.RetriesAttempted)
				}
				return nil
			}
			prev := hypothesisCase{Value: values[c.Index-1], Index: c.Index - 1, Seed: c.Seed}
			if p.RunsRecovered < recovered[prev] {
				return fmt.Errorf("limit %d recovered %d < limit %d recovered %d",
					limits[c.Index], p.RunsRecovered, limits[c.Index-1], recovered[prev])
			}
			if p.RetriesAttempted < attempts[prev] {
				return fmt.Errorf("limit %d attempted %d < limit %d attempted %d",
					limits[c.Index], p.RetriesAttempted, limits[c.Index-1], attempts[prev])
			}
			return nil
		},
	})
}

// TestHypothesisCheckpointingReducesLoss: with retries held fixed, any
// checkpointing discipline loses no more node-hours than none — the
// rework tail and every retry's survival requirement shrink pointwise.
func TestHypothesisCheckpointingReducesLoss(t *testing.T) {
	f := getFixture(t)
	kinds := []string{"none", "fixed", "daly"}
	policyFor := func(kind string) Policy {
		p := retryPolicy("p", 2)
		switch kind {
		case "none":
			p.Checkpoint = CheckpointNone
			p.CheckpointCost = 0
		case "fixed":
			p.Checkpoint = CheckpointFixed
			p.CheckpointInterval = 2 * time.Hour
		case "daly":
			p.Checkpoint = CheckpointDaly
		}
		return p
	}
	lost := map[hypothesisCase]float64{}
	recovered := map[hypothesisCase]int{}
	runHypothesis(t, hypothesis{
		Name:      "checkpointing-reduces-loss",
		Dimension: "checkpoint",
		Values:    kinds,
		Seeds:     scenarioSeeds,
		Precondition: func(c hypothesisCase) error {
			return requireInterrupts(f)
		},
		Check: func(c hypothesisCase) error {
			rep := mustSimulate(t, f.input, []Policy{policyFor(c.Value)}, Options{Seed: c.Seed})
			p := rep.Policies[0]
			lost[c] = p.LostNodeHours
			recovered[c] = p.RunsRecovered
			if c.Index == 0 {
				return nil
			}
			none := hypothesisCase{Value: "none", Index: 0, Seed: c.Seed}
			if p.LostNodeHours > lost[none] {
				return fmt.Errorf("%s lost %v > none lost %v", c.Value, p.LostNodeHours, lost[none])
			}
			if p.RunsRecovered < recovered[none] {
				return fmt.Errorf("%s recovered %d < none recovered %d", c.Value, p.RunsRecovered, recovered[none])
			}
			return nil
		},
	})
}

// TestHypothesisDetectFractionMonotone: the detection counterfactual
// reclassifies a monotone set — every run detected at fraction f is also
// detected at f' > f, because all fractions share the run's uniform draw.
func TestHypothesisDetectFractionMonotone(t *testing.T) {
	f := getFixture(t)
	fractions := []string{"0", "0.5", "1"}
	detected := map[hypothesisCase]int{}
	runHypothesis(t, hypothesis{
		Name:      "detect-fraction-monotone",
		Dimension: "detect-fraction",
		Values:    fractions,
		Seeds:     scenarioSeeds,
		Precondition: func(c hypothesisCase) error {
			if n := silentCandidates(f.res.Runs); n < 10 {
				return fmt.Errorf("fixture has %d XK USER candidates; need >= 10", n)
			}
			return nil
		},
		Check: func(c hypothesisCase) error {
			frac, err := strconv.ParseFloat(c.Value, 64)
			if err != nil {
				return err
			}
			rep := mustSimulate(t, f.input, []Policy{{Name: "p", DetectFraction: frac}}, Options{Seed: c.Seed})
			p := rep.Policies[0]
			detected[c] = p.RunsDetected
			switch c.Value {
			case "0":
				if p.RunsDetected != 0 {
					return fmt.Errorf("fraction 0 detected %d runs", p.RunsDetected)
				}
			case "1":
				if p.RunsDetected != silentCandidates(f.res.Runs) {
					return fmt.Errorf("fraction 1 detected %d of %d candidates", p.RunsDetected, silentCandidates(f.res.Runs))
				}
			}
			if c.Index > 0 {
				prev := hypothesisCase{Value: fractions[c.Index-1], Index: c.Index - 1, Seed: c.Seed}
				if p.RunsDetected < detected[prev] {
					return fmt.Errorf("fraction %s detected %d < fraction %s detected %d",
						c.Value, p.RunsDetected, fractions[c.Index-1], detected[prev])
				}
			}
			return nil
		},
	})
}

// TestHypothesisParallelismInvariant: the report is a pure function of
// (input, policies, seed); the worker count never leaks into the bytes.
func TestHypothesisParallelismInvariant(t *testing.T) {
	f := getFixture(t)
	pols := DefaultPolicies()
	baseline := map[int64][]byte{}
	runHypothesis(t, hypothesis{
		Name:      "parallelism-invariant",
		Dimension: "parallelism",
		Values:    []string{"1", "4"},
		Seeds:     scenarioSeeds,
		Precondition: func(c hypothesisCase) error {
			if len(f.input.Runs) < 100 {
				return fmt.Errorf("fixture has %d runs; need >= 100 to exercise chunking", len(f.input.Runs))
			}
			return nil
		},
		Check: func(c hypothesisCase) error {
			par, err := strconv.Atoi(c.Value)
			if err != nil {
				return err
			}
			rep := mustSimulate(t, f.input, pols, Options{Seed: c.Seed, Parallelism: par})
			b, err := json.Marshal(rep)
			if err != nil {
				return err
			}
			if par == 1 {
				baseline[c.Seed] = b
				return nil
			}
			if string(b) != string(baseline[c.Seed]) {
				return fmt.Errorf("parallelism %d report differs from parallelism 1 at seed %d", par, c.Seed)
			}
			return nil
		},
	})
}
