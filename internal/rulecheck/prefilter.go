package rulecheck

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"regexp"
	"regexp/syntax"
	"strconv"
	"strings"
	"unicode"

	"logdiver/internal/taxonomy"
)

// Prefilter soundness: the classifier extracts a literal filter from each
// rule's regexp syntax tree (internal/taxonomy) and never runs the regexp
// of a rule whose filter the message's one scan did not pass — and when the
// filter is an exact ordered-chain decomposition a filter HIT classifies
// the message outright, with no regexp call at all. Both shortcuts rest on
// invariants a future rule or extractor edit can silently break:
//
//   - necessity: every string the regexp accepts must pass the filter
//     (otherwise the classifier drops messages the rule should match);
//   - ordered sufficiency: every newline-free string an ordered filter
//     accepts must match the regexp (otherwise an exact hit misclassifies).
//
// VerifyPrefilter proves both directions differentially: witnesses
// synthesized from the rule's own syntax tree plus a seeded randomized
// mutation corpus for necessity, and chain-derived probes for ordered
// sufficiency. checkPrefilters runs it over a whole rule set as the
// "prefilter-unsound" lint check, so `logdiver lint-rules` and the CI lint
// job catch a desynchronized filter before it ships. checkHotPath reports,
// as "regexp-on-hot-path", each rule the extractor could not make exact:
// its regexp is what the per-line path then pays for.

// prefilterFillers separate chain literals in ordered-sufficiency probes.
// All are newline-free: the exactness claim only covers newline-free
// messages (ClassifyBytes demotes chain hits to prefilters otherwise).
var prefilterFillers = []string{"", " ", "x", " 0xdeadbeef ", "\t..zz9 "}

// checkPrefilters verifies each rule's extracted prefilter against its
// regexp and reports rules where the two have desynchronized.
func checkPrefilters(rules []taxonomy.LocatedRule, maxWitnesses int, add func(Finding)) {
	for i, r := range rules {
		pf := taxonomy.ExtractPrefilter(r.Pattern.String())
		if pf == nil {
			continue // no filter: the regexp always runs, nothing to verify
		}
		if msg := VerifyPrefilter(r.Pattern, pf, maxWitnesses); msg != "" {
			add(Finding{
				Check: "prefilter-unsound", Severity: Error,
				Rule: r.Name, Index: i, Line: r.Line,
				Message: msg + "; the classifier would silently misroute messages for this rule",
			})
		}
	}
}

// checkHotPath reports the rules whose regexp still runs during
// classification because the extractor could not make their filter exact.
func checkHotPath(rules []taxonomy.LocatedRule, add func(Finding)) {
	for i, r := range rules {
		pf := taxonomy.ExtractPrefilter(r.Pattern.String())
		if pf != nil && pf.Ordered() {
			continue
		}
		add(Finding{
			Check: "regexp-on-hot-path", Severity: Warn,
			Rule: r.Name, Index: i, Line: r.Line,
			Message: "regexp runs on " + admitted(pf) + " that no earlier rule decided; only a (?i) pattern built from" +
				" literals, .* gaps, alternations, x? and small punctuation classes is decided by the literal scan alone",
		})
	}
}

// admitted describes the messages a non-exact filter lets through to the
// regexp: all of them without a filter, else those containing every literal
// of some branch.
func admitted(pf *taxonomy.Prefilter) string {
	if pf == nil {
		return "every message"
	}
	var alts []string
	for _, br := range pf.Branches() {
		for i, l := range br {
			br[i] = strconv.Quote(l)
		}
		alts = append(alts, strings.Join(br, " and "))
	}
	return "every message containing " + strings.Join(alts, ", or ")
}

// VerifyPrefilter cross-checks a literal prefilter against the compiled
// pattern it claims to filter for. It returns "" when no violation is
// found, or a description of the first violation. The check is
// differential, not a proof: candidates are synthesized from the pattern's
// own syntax tree and mutated with a deterministic seeded RNG, so a run is
// reproducible and a desynchronized filter is found with high probability.
func VerifyPrefilter(re *regexp.Regexp, pf *taxonomy.Prefilter, maxWitnesses int) string {
	if maxWitnesses <= 0 {
		maxWitnesses = 8
	}
	rng := rand.New(rand.NewSource(prefilterSeed(re.String())))

	// Necessity: regexp match => filter pass. Witnesses are verified
	// matches by construction; mutations keep only candidates the regexp
	// still accepts.
	var wits []string
	if tree, err := syntax.Parse(re.String(), syntax.Perl); err == nil {
		wits = witnesses(re, tree.Simplify(), maxWitnesses)
	}
	for _, w := range wits {
		for _, c := range mutateWitness(w, rng) {
			if !re.MatchString(c) {
				continue
			}
			if !pf.Match([]byte(c)) {
				return fmt.Sprintf("prefilter is not necessary: the pattern matches %q but the extracted filter rejects it", c)
			}
		}
	}

	// Ordered sufficiency: filter pass => regexp match, on newline-free
	// probes assembled from the filter's own chains.
	if !pf.Ordered() {
		return ""
	}
	for _, chain := range pf.Branches() {
		for _, f := range prefilterFillers {
			for _, probe := range orderedProbes(chain, f, rng) {
				if pf.Match([]byte(probe)) && !re.MatchString(probe) {
					return fmt.Sprintf("ordered prefilter is not exact: the filter accepts %q but the pattern rejects it", probe)
				}
			}
		}
	}
	return ""
}

// mutateWitness derives necessity candidates from one verified witness:
// the witness itself, padded, case-flipped, and with the two non-ASCII
// runes that case-fold onto ASCII spliced in. Candidates the regexp no
// longer matches are filtered out by the caller.
func mutateWitness(w string, rng *rand.Rand) []string {
	out := []string{
		w,
		"jan 01 00:00:00 " + w,
		w + " on node c0-0c0s0n0",
		"... " + w + " ...",
		strings.ToUpper(w),
	}
	// Random case flips, reproducible via the caller's seeded RNG.
	if len(w) > 0 {
		b := []rune(w)
		for i := range b {
			if rng.Intn(2) == 0 {
				b[i] = unicode.ToUpper(b[i])
			}
		}
		out = append(out, string(b))
	}
	// U+212A KELVIN SIGN folds with 'k', U+017F LONG S with 's': the
	// filter folds them to ASCII, and a case-insensitive pattern matches
	// them, so they probe the folding path specifically.
	if i := strings.IndexByte(w, 'k'); i >= 0 {
		out = append(out, w[:i]+"K"+w[i+1:])
	}
	if i := strings.IndexByte(w, 's'); i >= 0 {
		out = append(out, w[:i]+"ſ"+w[i+1:])
	}
	return out
}

// orderedProbes assembles newline-free strings that pass one ordered chain
// by construction: its literals joined by the filler, plus uppercase and
// randomly padded variants.
func orderedProbes(chain []string, filler string, rng *rand.Rand) []string {
	joined := strings.Join(chain, filler)
	probes := []string{
		joined,
		strings.ToUpper(joined),
		prefilterPad(rng) + joined + prefilterPad(rng),
	}
	return probes
}

// prefilterPad returns a short random newline-free pad.
func prefilterPad(rng *rand.Rand) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 ._-"
	n := rng.Intn(6)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(alphabet[rng.Intn(len(alphabet))])
	}
	return b.String()
}

// prefilterSeed derives a stable RNG seed from the pattern text, so
// verification is deterministic per rule but varies across rules.
func prefilterSeed(pattern string) int64 {
	h := fnv.New64a()
	h.Write([]byte(pattern))
	return int64(h.Sum64())
}
