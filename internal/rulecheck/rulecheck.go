// Package rulecheck is a semantic linter for taxonomy rule sets. The
// classification rules are the foundation the whole attribution pipeline
// stands on: a misordered or shadowed regex silently reclassifies
// system-caused failures and skews the headline fractions, and the rule-file
// loader only guarantees that every regex compiles. rulecheck closes that
// gap with checks that understand first-match-wins semantics:
//
//   - bad-name / dup-name: names that cannot survive the rule-file format,
//     or that collide (error)
//   - empty-match: rules whose pattern matches the empty string — under
//     unanchored matching such a rule fires on every message, so everything
//     after it is dead (error; anchored empty matches are a warning)
//   - shadow-structural: a rule whose pattern is provably contained in an
//     earlier rule's pattern (identical pattern, an alternation branch of an
//     earlier pattern, or a literal already matched by an earlier
//     anchor-free pattern) can never fire (error)
//   - shadow-witness / shadow-corpus: differential evidence of shadowing —
//     every string synthesized from the rule's own regex, and/or every
//     message in the internal/errlog reference corpus the rule matches, is
//     captured by an earlier rule first (warning each; error when both
//     agree)
//   - coverage-gap: a taxonomy category with no rule at all, so that class
//     of message falls through to UNCLASSIFIED (warning)
//   - severity-mismatch: a benign/informational category graded ERROR or
//     CRIT (which turns recovery notices into application-killing evidence;
//     error), or an inherently fatal category graded INFO/WARN (warning)
//   - superlinear: nested unbounded quantifiers; Go's RE2 engine stays
//     linear, but site rule files are routinely reused with backtracking
//     engines where these patterns blow up (warning)
//   - regexp-on-hot-path: the rule's pattern is not an exact literal-chain
//     decomposition, so classification runs its regexp on every message
//     containing the filter's literals — or, with no filter at all, on
//     every message (warning)
//
// Findings carry the rule name, the rule-file line when known, a
// machine-readable check identifier and a severity, so they can be rendered
// for humans or as JSON and gated in CI.
package rulecheck

import (
	"bytes"
	"fmt"
	"os"
	"sort"

	"logdiver/internal/taxonomy"
)

// Severity grades a finding. Error findings indicate the rule set
// misclassifies or drops messages; Warn findings indicate likely mistakes
// that need human judgment.
type Severity int

// Finding severities.
const (
	Warn Severity = iota + 1
	Error
)

// String returns "warn" or "error".
func (s Severity) String() string {
	switch s {
	case Warn:
		return "warn"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// MarshalJSON renders the severity as its lowercase name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// Finding is one lint diagnostic.
type Finding struct {
	// Check is the machine-readable check identifier ("shadow-structural",
	// "empty-match", ...).
	Check string `json:"check"`
	// Severity is Warn or Error.
	Severity Severity `json:"severity"`
	// Rule is the offending rule's name; empty for rule-set-level findings
	// (coverage-gap).
	Rule string `json:"rule,omitempty"`
	// Index is the rule's 0-based position in the list, or -1 for
	// rule-set-level findings.
	Index int `json:"index"`
	// Line is the 1-based rule-file line, when the rule came from a file.
	Line int `json:"line,omitempty"`
	// Message is the human-readable diagnostic.
	Message string `json:"message"`
	// Related names the other rule involved (the shadowing rule, the first
	// holder of a duplicated name), with its line when known.
	Related     string `json:"related,omitempty"`
	RelatedLine int    `json:"related_line,omitempty"`
}

// String renders the finding as a one-line diagnostic.
func (f Finding) String() string {
	loc := "rule set"
	switch {
	case f.Rule != "" && f.Line > 0:
		loc = fmt.Sprintf("rule %q (line %d)", f.Rule, f.Line)
	case f.Rule != "":
		loc = fmt.Sprintf("rule %q (#%d)", f.Rule, f.Index+1)
	}
	return fmt.Sprintf("%s: %s: [%s] %s", f.Severity, loc, f.Check, f.Message)
}

const (
	// corpusPerCategory is how many errlog renderings per category the
	// reference corpus holds.
	corpusPerCategory = 4
	// maxWitnesses bounds the strings synthesized per rule for the
	// witness-based shadow check.
	maxWitnesses = 8
)

// Check lints an ordered rule set and returns its findings, sorted by rule
// position. A clean rule set returns nil.
func Check(rules []taxonomy.Rule) []Finding {
	return check(rules, defaultCorpus())
}

// check is Check against a given reference corpus; an empty one skips the
// corpus checks.
func check(rules []taxonomy.Rule, corpus []string) []Finding {
	var fs []Finding
	add := func(f Finding) { fs = append(fs, f) }
	at := func(i int) (string, int) {
		if i < 0 || i >= len(rules) {
			return "", 0
		}
		return rules[i].Name, rules[i].Line
	}

	checkNames(rules, add)
	infos := analyzeRules(rules, add)
	checkShadowing(rules, infos, corpus, add, at)
	checkCoverage(rules, add)
	checkSeverities(rules, add)
	checkHotPath(rules, add)

	if len(fs) == 0 {
		return nil
	}
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		ai, bi := a.Index, b.Index
		if ai < 0 {
			ai = len(rules) // rule-set findings sort last
		}
		if bi < 0 {
			bi = len(rules)
		}
		if ai != bi {
			return ai < bi
		}
		return a.Check < b.Check
	})
	return fs
}

// checkNames flags names that break the rule-file format and duplicates.
func checkNames(rules []taxonomy.Rule, add func(Finding)) {
	first := make(map[string]int, len(rules))
	for i, r := range rules {
		if err := taxonomy.CheckName(r.Name); err != nil {
			add(Finding{
				Check: "bad-name", Severity: Error,
				Rule: r.Name, Index: i, Line: r.Line,
				Message: err.Error() + "; the rule cannot be written to or re-read from a rule file",
			})
			continue
		}
		if j, dup := first[r.Name]; dup {
			add(Finding{
				Check: "dup-name", Severity: Error,
				Rule: r.Name, Index: i, Line: r.Line,
				Message: fmt.Sprintf("duplicate rule name (first used at %s); diagnostics and overrides cannot distinguish them",
					describePos(rules[j])),
				Related: rules[j].Name, RelatedLine: rules[j].Line,
			})
			continue
		}
		first[r.Name] = i
	}
}

// checkCoverage flags taxonomy categories no rule classifies.
func checkCoverage(rules []taxonomy.Rule, add func(Finding)) {
	covered := make(map[taxonomy.Category]bool, len(rules))
	for _, r := range rules {
		covered[r.Category] = true
	}
	for _, c := range taxonomy.Categories() {
		if !covered[c] {
			add(Finding{
				Check: "coverage-gap", Severity: Warn,
				Index: -1,
				Message: fmt.Sprintf("no rule classifies category %s; messages of this class fall through to UNCLASSIFIED and are invisible to attribution",
					c),
			})
		}
	}
}

// fatalCategories are categories whose real-world events terminate
// applications or nodes essentially always; grading them below ERROR hides
// them from the failure-attribution join.
var fatalCategories = map[taxonomy.Category]bool{
	taxonomy.HardwareMemoryUE: true,
	taxonomy.GPUMemoryDBE:     true,
	taxonomy.GPUBusOff:        true,
	taxonomy.FilesystemLBUG:   true,
	taxonomy.NodeHeartbeat:    true,
	taxonomy.KernelPanic:      true,
}

// checkSeverities flags category/severity gradings that corrupt
// attribution in either direction.
func checkSeverities(rules []taxonomy.Rule, add func(Finding)) {
	for i, r := range rules {
		switch {
		case r.Category.Benign() && r.Severity >= taxonomy.SevError:
			add(Finding{
				Check: "severity-mismatch", Severity: Error,
				Rule: r.Name, Index: i, Line: r.Line,
				Message: fmt.Sprintf("%s is a benign/informational category but the rule grades it %s; benign events would count as application-killing evidence",
					r.Category, r.Severity),
			})
		case fatalCategories[r.Category] && r.Severity <= taxonomy.SevWarning:
			add(Finding{
				Check: "severity-mismatch", Severity: Warn,
				Rule: r.Name, Index: i, Line: r.Line,
				Message: fmt.Sprintf("%s events terminate applications but the rule grades them %s; they would be excluded from failure attribution",
					r.Category, r.Severity),
			})
		}
	}
}

func describePos(r taxonomy.Rule) string {
	if r.Line > 0 {
		return fmt.Sprintf("line %d", r.Line)
	}
	return fmt.Sprintf("rule %q", r.Name)
}

// LoadClassifier builds the classifier of a -rules file, the one loader
// behind both binaries. An empty path means the built-in taxonomy: nil
// classifier, nil bytes. With validate set the rule set is linted first:
// warn receives every finding, and a set with error-severity findings is
// rejected with an error naming the file, the first error and the override.
// The file's bytes are returned for the caller that fingerprints the rule
// set.
func LoadClassifier(path string, validate bool, warn func(Finding)) (*taxonomy.Classifier, []byte, error) {
	if path == "" {
		return nil, nil, nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	rules, err := taxonomy.ReadRuleFile(bytes.NewReader(raw))
	if err != nil {
		return nil, nil, err
	}
	if validate {
		var nerr int
		var first string
		for _, f := range Check(rules) {
			warn(f)
			if f.Severity == Error {
				if nerr == 0 {
					first = f.String()
				}
				nerr++
			}
		}
		if nerr > 0 {
			return nil, nil, fmt.Errorf("%s: rulecheck: rule set rejected with %d error finding(s); first: %s (rerun with -validate-rules=false to override)",
				path, nerr, first)
		}
	}
	return taxonomy.NewClassifier(rules), raw, nil
}
