package rulecheck

import (
	"fmt"
	"regexp/syntax"
	"strings"

	"logdiver/internal/taxonomy"
)

// ruleInfo caches the per-rule regex analysis shared by several checks.
type ruleInfo struct {
	tree      *syntax.Regexp // simplified syntax tree, nil if unparseable
	universal bool           // matches every message (dead rules follow)
	anchored  bool           // contains ^ $ \b \A \z or equivalents
}

// analyzeRules runs the single-rule regex checks (empty-match/universal,
// superlinear) and returns the cached analysis for the shadowing passes.
func analyzeRules(rules []taxonomy.Rule, add func(Finding)) []ruleInfo {
	infos := make([]ruleInfo, len(rules))
	for i, r := range rules {
		if r.Pattern == nil {
			add(Finding{
				Check: "bad-pattern", Severity: Error,
				Rule: r.Name, Index: i, Line: r.Line,
				Message: "rule has no compiled pattern",
			})
			continue
		}
		tree, err := syntax.Parse(r.Pattern.String(), syntax.Perl)
		if err != nil {
			// Pattern compiled with regexp but not regexp/syntax: cannot
			// happen in practice; skip the structural checks for it.
			continue
		}
		tree = tree.Simplify()
		info := &infos[i]
		info.tree = tree
		info.anchored = hasAnchor(tree)

		matchesEmpty := r.Pattern.MatchString("")
		switch {
		case matchesEmpty && !info.anchored:
			info.universal = true
			add(Finding{
				Check: "empty-match", Severity: Error,
				Rule: r.Name, Index: i, Line: r.Line,
				Message: "pattern matches the empty string; under unanchored matching it fires on every message, so every later rule is dead",
			})
		case trivialUniversal(tree):
			info.universal = true
			add(Finding{
				Check: "empty-match", Severity: Error,
				Rule: r.Name, Index: i, Line: r.Line,
				Message: "pattern is trivially universal (matches any non-empty message), so every later rule is effectively dead",
			})
		case matchesEmpty:
			add(Finding{
				Check: "empty-match", Severity: Warn,
				Rule: r.Name, Index: i, Line: r.Line,
				Message: "pattern can match the empty string; check the anchoring is intended",
			})
		}

		if sub := superlinearSubtree(tree); sub != "" {
			add(Finding{
				Check: "superlinear", Severity: Warn,
				Rule: r.Name, Index: i, Line: r.Line,
				Message: fmt.Sprintf("nested unbounded quantifiers in %q; Go's RE2 engine stays linear, but this pattern blows up on the backtracking engines site rule files are often reused with", sub),
			})
		}
	}
	return infos
}

// checkShadowing reports rules that can never fire under first-match-wins
// ordering, combining structural containment proofs with differential
// evidence (synthesized witnesses and the reference corpus).
func checkShadowing(rules []taxonomy.Rule, infos []ruleInfo, corpus []string, add func(Finding), at func(int) (string, int)) {
	type evidence struct {
		witnessBy int // earlier rule most often capturing the witnesses, -1 if none
		witnessN  int
		corpusBy  int
		corpusN   int // corpus messages matched but never first
	}

	structural := make([]bool, len(rules))
	// Structural containment: a later rule fully contained in an earlier
	// one. Universal earlier rules already produced an empty-match error
	// naming everything after them dead; repeating that per pair would
	// flood the report.
	for j := 1; j < len(rules); j++ {
		if infos[j].tree == nil {
			continue
		}
		for i := 0; i < j; i++ {
			if infos[i].tree == nil || infos[i].universal {
				continue
			}
			how := structurallyContains(rules[i], infos[i], rules[j], infos[j])
			if how == "" {
				continue
			}
			name, line := at(i)
			add(Finding{
				Check: "shadow-structural", Severity: Error,
				Rule: rules[j].Name, Index: j, Line: rules[j].Line,
				Message: fmt.Sprintf("rule can never fire: %s earlier rule %q (%s), which always matches first",
					how, name, describePos(rules[i])),
				Related: name, RelatedLine: line,
			})
			structural[j] = true
			break
		}
	}

	// Differential evidence for the remaining rules.
	firstMatch := func(msg string, upto int) int {
		for i := 0; i < upto; i++ {
			if rules[i].Pattern != nil && rules[i].Pattern.MatchString(msg) {
				return i
			}
		}
		return -1
	}
	for j := 1; j < len(rules); j++ {
		if structural[j] || infos[j].tree == nil || rules[j].Pattern == nil {
			continue
		}
		ev := evidence{witnessBy: -1, corpusBy: -1}

		// Witnesses synthesized from the rule's own pattern: if every
		// string we can derive from the regex is captured earlier, the rule
		// is likely dead.
		wits := witnesses(rules[j].Pattern, infos[j].tree, maxWitnesses)
		if len(wits) > 0 {
			counts := map[int]int{}
			preempted := 0
			for _, w := range wits {
				if i := firstMatch(w, j); i >= 0 {
					preempted++
					counts[i]++
				}
			}
			if preempted == len(wits) {
				ev.witnessN = len(wits)
				ev.witnessBy = argmax(counts)
			}
		}

		// Corpus differential firing: the rule matches reference messages
		// but never first.
		matched, neverFirst := 0, 0
		counts := map[int]int{}
		for _, msg := range corpus {
			if !rules[j].Pattern.MatchString(msg) {
				continue
			}
			matched++
			if i := firstMatch(msg, j); i >= 0 {
				neverFirst++
				counts[i]++
			}
		}
		if matched > 0 && neverFirst == matched {
			ev.corpusN = matched
			ev.corpusBy = argmax(counts)
		}

		switch {
		case ev.witnessBy >= 0 && ev.corpusBy >= 0:
			name, line := at(ev.corpusBy)
			add(Finding{
				Check: "shadow-differential", Severity: Error,
				Rule: rules[j].Name, Index: j, Line: rules[j].Line,
				Message: fmt.Sprintf("rule never fires: all %d strings synthesized from its pattern and all %d corpus messages it matches are captured by earlier rules, most often %q (%s)",
					ev.witnessN, ev.corpusN, name, describePos(rules[ev.corpusBy])),
				Related: name, RelatedLine: line,
			})
		case ev.corpusBy >= 0:
			name, line := at(ev.corpusBy)
			add(Finding{
				Check: "shadow-corpus", Severity: Warn,
				Rule: rules[j].Name, Index: j, Line: rules[j].Line,
				Message: fmt.Sprintf("rule matches %d reference corpus messages but is never their first match; earlier rule %q (%s) captures them",
					ev.corpusN, name, describePos(rules[ev.corpusBy])),
				Related: name, RelatedLine: line,
			})
		case ev.witnessBy >= 0:
			name, line := at(ev.witnessBy)
			add(Finding{
				Check: "shadow-witness", Severity: Warn,
				Rule: rules[j].Name, Index: j, Line: rules[j].Line,
				Message: fmt.Sprintf("all %d strings synthesized from the rule's pattern are captured by earlier rules, most often %q (%s); the rule may be unreachable",
					ev.witnessN, name, describePos(rules[ev.witnessBy])),
				Related: name, RelatedLine: line,
			})
		}
	}
}

func argmax(counts map[int]int) int {
	best, bestN := -1, -1
	for i, n := range counts {
		if n > bestN || (n == bestN && i < best) {
			best, bestN = i, n
		}
	}
	return best
}

// structurallyContains reports how (if at all) the language of the later
// rule's pattern is provably contained in the earlier rule's. It returns a
// human-readable phrase for the containment proof, or "".
func structurallyContains(early taxonomy.Rule, earlyInfo ruleInfo, late taxonomy.Rule, lateInfo ruleInfo) string {
	es, ls := earlyInfo.tree.String(), lateInfo.tree.String()
	if es == ls {
		return "its pattern is identical to"
	}
	// The later pattern is one branch of an earlier alternation:
	// `foo` after `foo|bar` can never fire.
	if earlyInfo.tree.Op == syntax.OpAlternate {
		for _, br := range earlyInfo.tree.Sub {
			if br.String() == ls {
				return "its pattern is an alternation branch of"
			}
		}
	}
	// The later pattern is a plain literal the earlier (anchor-free)
	// pattern already matches: any message containing the literal also
	// contains the earlier rule's match.
	if lit, ok := literalOf(lateInfo.tree); ok && !earlyInfo.anchored {
		if early.Pattern != nil && early.Pattern.MatchString(lit) {
			return fmt.Sprintf("its literal pattern %q is already matched by", lit)
		}
	}
	return ""
}

// literalOf extracts the literal string of a pattern that matches exactly
// one string (no case folding, alternation, classes or quantifiers).
func literalOf(t *syntax.Regexp) (string, bool) {
	switch t.Op {
	case syntax.OpLiteral:
		if t.Flags&syntax.FoldCase != 0 {
			return "", false
		}
		return string(t.Rune), true
	case syntax.OpCapture:
		return literalOf(t.Sub[0])
	case syntax.OpConcat:
		var b strings.Builder
		for _, sub := range t.Sub {
			s, ok := literalOf(sub)
			if !ok {
				return "", false
			}
			b.WriteString(s)
		}
		return b.String(), true
	default:
		return "", false
	}
}

// hasAnchor reports whether the pattern constrains match position (^, $,
// \A, \z, \b, \B), which invalidates substring-closure reasoning.
func hasAnchor(t *syntax.Regexp) bool {
	switch t.Op {
	case syntax.OpBeginLine, syntax.OpEndLine, syntax.OpBeginText, syntax.OpEndText,
		syntax.OpWordBoundary, syntax.OpNoWordBoundary:
		return true
	}
	for _, sub := range t.Sub {
		if hasAnchor(sub) {
			return true
		}
	}
	return false
}

// trivialUniversal reports patterns of the shape .*, .+, (?s).+ etc. that
// match any (non-empty) message.
func trivialUniversal(t *syntax.Regexp) bool {
	switch t.Op {
	case syntax.OpCapture:
		return trivialUniversal(t.Sub[0])
	case syntax.OpStar, syntax.OpPlus:
		sub := t.Sub[0]
		return sub.Op == syntax.OpAnyChar || sub.Op == syntax.OpAnyCharNotNL
	default:
		return false
	}
}

// unbounded reports whether the node repeats its subexpression without an
// upper bound.
func unbounded(t *syntax.Regexp) bool {
	switch t.Op {
	case syntax.OpStar, syntax.OpPlus:
		return true
	case syntax.OpRepeat:
		return t.Max < 0
	default:
		return false
	}
}

// superlinearSubtree returns the source text of an unbounded quantifier
// nested inside another unbounded quantifier — the classic catastrophic-
// backtracking shape like (a+)+ — or "" when the pattern has none.
func superlinearSubtree(t *syntax.Regexp) string {
	if unbounded(t) {
		if inner := findUnbounded(t.Sub[0]); inner != nil {
			return t.String()
		}
	}
	for _, sub := range t.Sub {
		if s := superlinearSubtree(sub); s != "" {
			return s
		}
	}
	return ""
}

// findUnbounded returns the first unbounded quantifier in the tree, if any.
func findUnbounded(t *syntax.Regexp) *syntax.Regexp {
	if unbounded(t) {
		return t
	}
	for _, sub := range t.Sub {
		if r := findUnbounded(sub); r != nil {
			return r
		}
	}
	return nil
}
