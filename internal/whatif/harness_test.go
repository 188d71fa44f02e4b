package whatif

import (
	"fmt"
	"strings"
	"testing"
)

// The hypothesis harness of the scenario suite. It enforces the discipline
// the suite follows: a hypothesis varies exactly ONE dimension, replicates
// every point across MULTIPLE seeds, and asserts its PRECONDITIONS on the
// fixture before asserting anything about outcomes — so a hypothesis that
// holds vacuously (no system failures to recover, no hybrid candidates to
// detect) fails loudly instead of passing silently.

// hypothesisCase is one evaluation point: one value of the varied dimension
// paired with one replication seed.
type hypothesisCase struct {
	// Value is the dimension value under test (its display form).
	Value string
	// Index is the value's position in hypothesis.Values, for checks that
	// compare adjacent points (monotonicity and the like).
	Index int
	// Seed is the replication seed.
	Seed int64
}

// hypothesis is one falsifiable claim about the simulator.
type hypothesis struct {
	// Name labels the claim ("retry-limit-monotone").
	Name string
	// Dimension names the single varied dimension; Values are its points
	// in sweep order (at least two — a hypothesis must vary something).
	Dimension string
	Values    []string
	// Seeds are the replication seeds (at least two — a hypothesis must
	// hold across seeds, not at one lucky draw).
	Seeds []int64
	// Precondition is asserted for every case before Check runs. It must
	// verify the fixture can falsify the claim at all.
	Precondition func(c hypothesisCase) error
	// Check asserts the claim at one case.
	Check func(c hypothesisCase) error
}

// validate enforces the harness discipline.
func (h hypothesis) validate() error {
	if h.Name == "" {
		return fmt.Errorf("hypothesis needs a name")
	}
	if h.Dimension == "" {
		return fmt.Errorf("hypothesis %q needs a dimension name", h.Name)
	}
	if len(h.Values) < 2 {
		return fmt.Errorf("hypothesis %q varies %d value(s) of %s; need >= 2", h.Name, len(h.Values), h.Dimension)
	}
	if len(h.Seeds) < 2 {
		return fmt.Errorf("hypothesis %q replicates across %d seed(s); need >= 2", h.Name, len(h.Seeds))
	}
	seen := map[string]bool{}
	for _, v := range h.Values {
		if seen[v] {
			return fmt.Errorf("hypothesis %q repeats value %q", h.Name, v)
		}
		seen[v] = true
	}
	if h.Precondition == nil {
		return fmt.Errorf("hypothesis %q has no precondition; assert what makes it falsifiable", h.Name)
	}
	if h.Check == nil {
		return fmt.Errorf("hypothesis %q has no check", h.Name)
	}
	return nil
}

// evaluate asserts the precondition, then the claim, at one case.
func (h hypothesis) evaluate(c hypothesisCase) error {
	if err := h.Precondition(c); err != nil {
		return fmt.Errorf("precondition: %w", err)
	}
	if err := h.Check(c); err != nil {
		return fmt.Errorf("hypothesis %q falsified: %w", h.Name, err)
	}
	return nil
}

// runHypothesis evaluates the hypothesis as a subtest per (value, seed)
// case. Harness-discipline violations are fatal.
func runHypothesis(t *testing.T, h hypothesis) {
	t.Helper()
	if err := h.validate(); err != nil {
		t.Fatal(err)
	}
	t.Run(h.Name, func(t *testing.T) {
		for i, v := range h.Values {
			for _, seed := range h.Seeds {
				c := hypothesisCase{Value: v, Index: i, Seed: seed}
				t.Run(fmt.Sprintf("%s=%s/seed=%d", h.Dimension, v, seed), func(t *testing.T) {
					if err := h.evaluate(c); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	})
}

func okHypothesis() hypothesis {
	return hypothesis{
		Name:         "ok",
		Dimension:    "dim",
		Values:       []string{"a", "b"},
		Seeds:        []int64{1, 2},
		Precondition: func(hypothesisCase) error { return nil },
		Check:        func(hypothesisCase) error { return nil },
	}
}

func TestValidateDiscipline(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*hypothesis)
		want   string
	}{
		{"no name", func(h *hypothesis) { h.Name = "" }, "needs a name"},
		{"no dimension", func(h *hypothesis) { h.Dimension = "" }, "needs a dimension"},
		{"one value", func(h *hypothesis) { h.Values = []string{"a"} }, "need >= 2"},
		{"one seed", func(h *hypothesis) { h.Seeds = []int64{1} }, "need >= 2"},
		{"dup value", func(h *hypothesis) { h.Values = []string{"a", "a"} }, "repeats value"},
		{"no precondition", func(h *hypothesis) { h.Precondition = nil }, "no precondition"},
		{"no check", func(h *hypothesis) { h.Check = nil }, "no check"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h := okHypothesis()
			tt.mutate(&h)
			err := h.validate()
			if err == nil {
				t.Fatal("discipline violation accepted")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not mention %q", err, tt.want)
			}
		})
	}
	if err := okHypothesis().validate(); err != nil {
		t.Errorf("valid hypothesis rejected: %v", err)
	}
}

func TestRunCoversEveryCase(t *testing.T) {
	h := okHypothesis()
	seen := map[hypothesisCase]int{}
	h.Check = func(c hypothesisCase) error {
		seen[c]++
		return nil
	}
	runHypothesis(t, h)
	if len(seen) != len(h.Values)*len(h.Seeds) {
		t.Fatalf("covered %d cases, want %d", len(seen), len(h.Values)*len(h.Seeds))
	}
	for c, n := range seen {
		if n != 1 {
			t.Errorf("case %+v ran %d times", c, n)
		}
		if c.Value != h.Values[c.Index] {
			t.Errorf("case %+v has mismatched value/index", c)
		}
	}
}

// TestRunReportsFalsification: a claim that fails at one value is reported
// at exactly that value's cases, and a failed precondition is reported
// before the claim is checked.
func TestRunReportsFalsification(t *testing.T) {
	h := okHypothesis()
	h.Check = func(c hypothesisCase) error {
		if c.Value == "b" {
			return fmt.Errorf("claim fails at %s", c.Value)
		}
		return nil
	}
	for i, v := range h.Values {
		for _, seed := range h.Seeds {
			err := h.evaluate(hypothesisCase{Value: v, Index: i, Seed: seed})
			if v == "a" && err != nil {
				t.Errorf("value a, seed %d: %v", seed, err)
			}
			if v == "b" && (err == nil || !strings.Contains(err.Error(), `hypothesis "ok" falsified: claim fails at b`)) {
				t.Errorf("value b, seed %d: falsification reported as %v", seed, err)
			}
		}
	}
	h.Precondition = func(hypothesisCase) error { return fmt.Errorf("fixture too quiet") }
	h.Check = func(hypothesisCase) error {
		t.Error("check ran after a failed precondition")
		return nil
	}
	if err := h.evaluate(hypothesisCase{Value: "a", Seed: 1}); err == nil || !strings.Contains(err.Error(), "precondition: fixture too quiet") {
		t.Errorf("failed precondition reported as %v", err)
	}
}
