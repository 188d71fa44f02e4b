package rulecheck

import (
	"regexp"
	"strings"
	"testing"

	"logdiver/internal/taxonomy"
)

// TestPrefilterShippedRulesSound proves the prefilters extracted from the
// built-in rule set are sound against their own regexps: Check emits no
// prefilter-unsound finding.
func TestPrefilterShippedRulesSound(t *testing.T) {
	rules := taxonomy.Locate(taxonomy.Default().Rules())
	fs := Check(rules, Options{NoCorpus: true})
	for _, f := range fs {
		if f.Check == "prefilter-unsound" {
			t.Errorf("shipped rule %q: %s", f.Rule, f.Message)
		}
	}
}

// TestPrefilterVerifyShipped exercises VerifyPrefilter directly on every
// shipped rule that has an extractable filter, so a regression is pinned
// to the rule rather than discovered through Check's aggregate output.
func TestPrefilterVerifyShipped(t *testing.T) {
	var verified int
	for _, r := range taxonomy.Default().Rules() {
		pf := taxonomy.ExtractPrefilter(r.Pattern.String())
		if pf == nil {
			continue
		}
		verified++
		if msg := VerifyPrefilter(r.Pattern, pf, 8); msg != "" {
			t.Errorf("rule %q: %s", r.Name, msg)
		}
	}
	if verified == 0 {
		t.Fatal("no shipped rule produced an extractable prefilter; the verifier is vacuous")
	}
	t.Logf("verified %d shipped prefilters", verified)
}

// TestPrefilterDetectsMissingLiteral desynchronizes a filter by requiring a
// literal the pattern does not: necessity must fail.
func TestPrefilterDetectsMissingLiteral(t *testing.T) {
	re := regexp.MustCompile(`machine check exception`)
	pf := taxonomy.NewPrefilter([][]string{{"machine", "wrongliteral"}}, true)
	msg := VerifyPrefilter(re, pf, 8)
	if msg == "" {
		t.Fatal("verifier accepted a filter that rejects every real match")
	}
	if !strings.Contains(msg, "not necessary") {
		t.Errorf("expected a necessity violation, got: %s", msg)
	}
}

// TestPrefilterDetectsWeakOrderedChain desynchronizes in the other
// direction: an ordered (exact, regexp-skipping) chain that accepts
// strings the pattern rejects must fail the exactness check.
func TestPrefilterDetectsWeakOrderedChain(t *testing.T) {
	re := regexp.MustCompile(`machine check exception`)
	// The chain only demands "machine": "machine" alone passes the filter
	// but does not match the pattern, so an exact hit would misclassify.
	pf := taxonomy.NewPrefilter([][]string{{"machine"}}, true)
	msg := VerifyPrefilter(re, pf, 8)
	if msg == "" {
		t.Fatal("verifier accepted an over-broad ordered chain")
	}
	if !strings.Contains(msg, "not exact") {
		t.Errorf("expected an ordered-exactness violation, got: %s", msg)
	}
}

// TestPrefilterDetectsCaseFoldGap probes the folding invariant: a
// case-insensitive pattern with a filter that (incorrectly) kept an
// uppercase literal fails necessity on a lowercase witness.
func TestPrefilterDetectsCaseFoldGap(t *testing.T) {
	re := regexp.MustCompile(`(?i)lustre error`)
	// Extraction folds literals to lowercase; this hand-built filter kept
	// the uppercase form, so the folded message scan can never hit it.
	pf := taxonomy.NewPrefilter([][]string{{"LUSTRE ERROR"}}, true)
	msg := VerifyPrefilter(re, pf, 8)
	if msg == "" {
		t.Fatal("verifier accepted an unfolded literal in the filter")
	}
}

// TestPrefilterUnorderedSkipsSufficiency confirms admitting (unordered DNF)
// filters are only held to necessity: an over-broad unordered filter is
// legal because the regexp still runs after a filter hit.
func TestPrefilterUnorderedSkipsSufficiency(t *testing.T) {
	re := regexp.MustCompile(`machine check exception`)
	pf := taxonomy.NewPrefilter([][]string{{"machine"}}, false)
	if msg := VerifyPrefilter(re, pf, 8); msg != "" {
		t.Errorf("unordered over-broad filter should be accepted (regexp confirms), got: %s", msg)
	}
}

// TestCheckPrefiltersFinding runs the check through the Check entry point
// on a rule whose extraction is sound, confirming the wiring emits nothing,
// then confirms checkPrefilters flags a desynchronized filter when driven
// directly (Check always re-extracts, so injection goes through the helper).
func TestCheckPrefiltersFinding(t *testing.T) {
	re := regexp.MustCompile(`node unavailable`)
	rules := []taxonomy.LocatedRule{{
		Rule: taxonomy.Rule{
			Name:     "node_unavail",
			Pattern:  re,
			Category: taxonomy.NodeHeartbeat,
			Severity: taxonomy.SevError,
		},
		Line: 3,
	}}
	var fs []Finding
	checkPrefilters(rules, 8, func(f Finding) { fs = append(fs, f) })
	if len(fs) != 0 {
		t.Fatalf("sound rule produced findings: %+v", fs)
	}

	// A pattern crafted so extraction yields a filter, verified against a
	// DIFFERENT pattern, models post-extraction desynchronization.
	stale := taxonomy.ExtractPrefilter(`filesystem unmounted`)
	if stale == nil {
		t.Fatal("expected an extractable filter for the stale pattern")
	}
	if msg := VerifyPrefilter(re, stale, 8); msg == "" {
		t.Fatal("stale filter from an unrelated pattern passed verification")
	}
}
