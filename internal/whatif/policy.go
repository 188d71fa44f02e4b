// Package whatif is the counterfactual resilience engine: a seeded,
// deterministic discrete-event simulator that replays an analyzed run
// stream — the attributed application runs plus the measured MTTI-by-scale
// distribution — under declarative resilience policies and prices what
// WOULD have happened. Policies combine the ORNL resilience design
// patterns the study motivates: checkpoint/restart with fixed or
// Daly-optimal intervals derived from the measured MTTI (internal/
// checkpoint does the interval math), bounded retry/requeue with backoff,
// and detection-coverage counterfactuals ("what if hybrid nodes had
// adequate GPU error detection"). Every simulation is a pure function of
// (input, policies, seed): per-run randomness is derived from the seed and
// the run's apid, so results are bit-identical at any parallelism.
package whatif

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"logdiver/internal/parse"
)

// CheckpointKind selects how a policy picks checkpoint intervals.
type CheckpointKind int

// Checkpoint interval disciplines.
const (
	// CheckpointNone disables checkpointing: an interrupted run loses
	// everything it executed, exactly as the measured baseline accounts it.
	CheckpointNone CheckpointKind = iota
	// CheckpointFixed writes a checkpoint every CheckpointInterval of
	// execution, regardless of scale.
	CheckpointFixed
	// CheckpointDaly derives the interval per scale bucket from the
	// measured MTTI via Daly's higher-order optimum (internal/checkpoint).
	CheckpointDaly
)

// String returns the config-file spelling of the kind.
func (k CheckpointKind) String() string {
	switch k {
	case CheckpointNone:
		return "none"
	case CheckpointFixed:
		return "fixed"
	case CheckpointDaly:
		return "daly"
	default:
		return "checkpoint(" + strconv.Itoa(int(k)) + ")"
	}
}

// checkpointKindFromString parses the config-file spelling.
func checkpointKindFromString(s string) (CheckpointKind, bool) {
	switch s {
	case "none":
		return CheckpointNone, true
	case "fixed":
		return CheckpointFixed, true
	case "daly":
		return CheckpointDaly, true
	default:
		return 0, false
	}
}

// MaxPolicies bounds how many policies one simulation accepts. The bound
// keeps a single /v1/whatif POST from turning into an unbounded amount of
// simulation work.
const MaxPolicies = 16

// Policy is one declarative resilience design to replay the measured
// stream under. The zero value (plus a name) is the no-op policy: it
// reproduces the measured baseline exactly.
type Policy struct {
	// Name labels the policy in reports and tables.
	Name string `json:"name"`
	// Checkpoint selects the interval discipline.
	Checkpoint CheckpointKind `json:"checkpoint"`
	// CheckpointInterval is the fixed interval (CheckpointFixed only).
	CheckpointInterval time.Duration `json:"checkpoint_interval,omitempty"`
	// CheckpointCost is the cost of writing one checkpoint. Required for
	// any checkpointing policy; it also feeds the Daly interval.
	CheckpointCost time.Duration `json:"checkpoint_cost,omitempty"`
	// RestartCost is the cost of restarting an interrupted run from its
	// last checkpoint (or from scratch without checkpointing).
	RestartCost time.Duration `json:"restart_cost,omitempty"`
	// RetryLimit bounds how many times an interrupted run is re-queued.
	// 0 disables recovery: interrupted runs stay failed, as measured.
	RetryLimit int `json:"retry_limit,omitempty"`
	// RetryBackoff is the queue wait before each retry. It delays
	// recovery (reported as recovery delay) but consumes no node-hours.
	RetryBackoff time.Duration `json:"retry_backoff,omitempty"`
	// DetectFraction is the detection-coverage counterfactual: the
	// fraction of hybrid-node (XK) runs attributed to the USER — where the
	// study shows silent GPU errors hide — that gain detection and are
	// reclassified as detected system interrupts, making them eligible for
	// the policy's recovery machinery.
	DetectFraction float64 `json:"detect_fraction,omitempty"`
}

// IsNoop reports whether the policy changes nothing: simulating it
// reproduces the measured baseline byte for byte.
func (p Policy) IsNoop() bool {
	return p.Checkpoint == CheckpointNone && p.RetryLimit == 0 && p.DetectFraction == 0
}

// Validate checks the policy for internal consistency.
func (p Policy) Validate() error {
	if !parse.ValidName(p.Name) {
		return fmt.Errorf("whatif: invalid policy name %q (letters, digits, dot, underscore, dash; max %d chars)", p.Name, parse.NameMax)
	}
	switch p.Checkpoint {
	case CheckpointNone:
		if p.CheckpointInterval != 0 {
			return fmt.Errorf("whatif: policy %q: checkpoint-interval set but checkpoint = none", p.Name)
		}
	case CheckpointFixed:
		if p.CheckpointInterval <= 0 {
			return fmt.Errorf("whatif: policy %q: checkpoint = fixed needs checkpoint-interval > 0", p.Name)
		}
	case CheckpointDaly:
		if p.CheckpointInterval != 0 {
			return fmt.Errorf("whatif: policy %q: checkpoint-interval only applies to checkpoint = fixed (daly derives it from the measured MTTI)", p.Name)
		}
	default:
		return fmt.Errorf("whatif: policy %q: unknown checkpoint kind %d", p.Name, int(p.Checkpoint))
	}
	if p.Checkpoint != CheckpointNone && p.CheckpointCost <= 0 {
		return fmt.Errorf("whatif: policy %q: checkpointing needs checkpoint-cost > 0", p.Name)
	}
	if p.Checkpoint == CheckpointNone && p.CheckpointCost != 0 {
		return fmt.Errorf("whatif: policy %q: checkpoint-cost set but checkpoint = none", p.Name)
	}
	if p.CheckpointCost < 0 || p.RestartCost < 0 || p.RetryBackoff < 0 {
		return fmt.Errorf("whatif: policy %q: negative durations are not allowed", p.Name)
	}
	if p.RetryLimit < 0 || p.RetryLimit > 100 {
		return fmt.Errorf("whatif: policy %q: retry-limit %d out of range [0,100]", p.Name, p.RetryLimit)
	}
	if p.RetryLimit == 0 && p.RetryBackoff != 0 {
		return fmt.Errorf("whatif: policy %q: retry-backoff set but retry-limit = 0", p.Name)
	}
	// The negated comparison also rejects NaN.
	if !(p.DetectFraction >= 0 && p.DetectFraction <= 1) {
		return fmt.Errorf("whatif: policy %q: detect-fraction %v out of range [0,1]", p.Name, p.DetectFraction)
	}
	return nil
}

// DefaultPolicies is the policy set simulated when a caller supplies none:
// the measured baseline, a Daly checkpointing design, the same design with
// bounded retries, and the paper's lesson-3 counterfactual where hybrid
// nodes gain GPU error detection on top of it.
func DefaultPolicies() []Policy {
	return []Policy{
		{Name: "baseline"},
		{
			Name:           "daly-checkpoint",
			Checkpoint:     CheckpointDaly,
			CheckpointCost: 7 * time.Minute,
			RestartCost:    12 * time.Minute,
		},
		{
			Name:           "daly-retry-2",
			Checkpoint:     CheckpointDaly,
			CheckpointCost: 7 * time.Minute,
			RestartCost:    12 * time.Minute,
			RetryLimit:     2,
			RetryBackoff:   5 * time.Minute,
		},
		{
			Name:           "gpu-detect",
			Checkpoint:     CheckpointDaly,
			CheckpointCost: 7 * time.Minute,
			RestartCost:    12 * time.Minute,
			RetryLimit:     2,
			RetryBackoff:   5 * time.Minute,
			DetectFraction: 0.8,
		},
	}
}

// ParsePolicies parses the declarative policy config format:
//
//	# comment (also ';')
//	[policy daly-retry-2]
//	checkpoint = daly
//	checkpoint-cost = 7m
//	restart-cost = 12m
//	retry-limit = 2
//	retry-backoff = 5m
//	detect-fraction = 0.8
//
// One [policy NAME] section per policy; every key is optional (an empty
// section is the no-op policy). checkpoint-interval (fixed discipline
// only) takes a Go duration. Policies are returned in file order and each
// must Validate; names must be unique.
func ParsePolicies(text string) ([]Policy, error) {
	secs, err := parse.Sections(text, "whatif", "policy", "policies")
	if err != nil {
		return nil, err
	}
	if len(secs) > MaxPolicies {
		return nil, fmt.Errorf("whatif: line %d: too many policies (max %d per simulation)", secs[MaxPolicies].Line, MaxPolicies)
	}
	pols := make([]Policy, len(secs))
	for i, sec := range secs {
		cur := &pols[i]
		cur.Name = sec.Name
		for _, kv := range sec.Keys {
			var err error
			switch value := kv.Value; kv.Key {
			case "checkpoint":
				kind, ok := checkpointKindFromString(value)
				if !ok {
					return nil, fmt.Errorf("whatif: line %d: unknown checkpoint kind %q (want none, fixed or daly)", kv.Line, value)
				}
				cur.Checkpoint = kind
			case "checkpoint-interval":
				cur.CheckpointInterval, err = parsePolicyDuration(value)
			case "checkpoint-cost":
				cur.CheckpointCost, err = parsePolicyDuration(value)
			case "restart-cost":
				cur.RestartCost, err = parsePolicyDuration(value)
			case "retry-limit":
				cur.RetryLimit, err = strconv.Atoi(value)
			case "retry-backoff":
				cur.RetryBackoff, err = parsePolicyDuration(value)
			case "detect-fraction":
				cur.DetectFraction, err = strconv.ParseFloat(value, 64)
			default:
				return nil, fmt.Errorf("whatif: line %d: unknown key %q", kv.Line, kv.Key)
			}
			if err != nil {
				return nil, fmt.Errorf("whatif: line %d: bad %s: %v", kv.Line, kv.Key, err)
			}
		}
		if err := cur.Validate(); err != nil {
			return nil, err
		}
	}
	return pols, nil
}

// parsePolicyDuration parses a positive Go duration.
func parsePolicyDuration(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d <= 0 {
		return 0, fmt.Errorf("duration %v must be positive", d)
	}
	return d, nil
}

// PoliciesString renders the policy set in the format ParsePolicies
// reads: Parse(String(Parse(x))) == Parse(x) for every accepted x
// (fuzzed by FuzzPolicyConfig). The rendering is canonical — it is also
// the /v1/whatif cache-key material.
func PoliciesString(pols []Policy) string {
	var b strings.Builder
	for i, p := range pols {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "[policy %s]\n", p.Name)
		if p.Checkpoint != CheckpointNone {
			fmt.Fprintf(&b, "checkpoint = %s\n", p.Checkpoint)
		}
		if p.CheckpointInterval != 0 {
			fmt.Fprintf(&b, "checkpoint-interval = %s\n", p.CheckpointInterval)
		}
		if p.CheckpointCost != 0 {
			fmt.Fprintf(&b, "checkpoint-cost = %s\n", p.CheckpointCost)
		}
		if p.RestartCost != 0 {
			fmt.Fprintf(&b, "restart-cost = %s\n", p.RestartCost)
		}
		if p.RetryLimit != 0 {
			fmt.Fprintf(&b, "retry-limit = %d\n", p.RetryLimit)
		}
		if p.RetryBackoff != 0 {
			fmt.Fprintf(&b, "retry-backoff = %s\n", p.RetryBackoff)
		}
		if p.DetectFraction != 0 {
			fmt.Fprintf(&b, "detect-fraction = %s\n", strconv.FormatFloat(p.DetectFraction, 'g', -1, 64))
		}
	}
	return b.String()
}

// LoadPolicies reads and parses a policy config file.
func LoadPolicies(path string) ([]Policy, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	pols, err := ParsePolicies(string(b))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return pols, nil
}
