// Literal prefilters for classification: before running a rule's regexp,
// decide cheaply whether the message can possibly match by scanning for the
// rule's required literals with bytes.Index over a case-folded copy. The
// literals are extracted from the compiled pattern's syntax tree, so they
// are sound by construction: a rule is skipped only when the regexp provably
// cannot match.
//
// Extraction has two tiers:
//
//  1. Ordered chains. When the pattern decomposes into an alternation of
//     literal chains — literals joined by ".*" gaps, e.g.
//     `machine check.*(cache|tlb)` — the decomposition is EXACT: the
//     unanchored regexp matches iff some chain's literals appear in order
//     (case-folded), so a chain hit classifies the message with no regexp
//     call at all. The only caveat is a message containing '\n' (".*"
//     cannot cross it); those fall back to the regexp, with the chain hit
//     demoted to a prefilter.
//
//  2. Unordered DNF. Otherwise the tree is folded into branches of
//     literals that must ALL appear for the pattern to match (one branch
//     per alternation arm): a literal requires itself; a concatenation
//     AND-combines its children (cross product, capped); an alternation
//     unions its branches and fails if any branch yields none; x+ and
//     min>=1 repeats require whatever x requires; optional forms require
//     nothing. A branch hit here only admits the rule — the regexp remains
//     the confirmation step.
//
// Rules whose tree yields no usable filter (or any non-ASCII literal)
// simply run their regexp unconditionally, so external rule files degrade
// to the unfiltered behavior instead of misclassifying.

package taxonomy

import (
	"bytes"
	"regexp/syntax"
	"strings"
	"sync"
	"unicode"
)

// maxBranches bounds the per-rule chain/branch count; wider alternations
// are not selective enough to be worth scanning.
const maxBranches = 12

// maxBranchLits bounds the literals per unordered branch; beyond that the
// extra bytes.Contains scans cost more than the regexp calls they save.
const maxBranchLits = 4

// prefilter is one rule's literal filter: either an exact ordered-chain
// decomposition or an unordered required-literal DNF.
type prefilter struct {
	branches [][][]byte
	// ordered marks branches as ordered chains (tier 1): a branch passes
	// when its literals appear in order, and a pass IS a match for
	// newline-free messages. Unordered branches (tier 2) pass on
	// containment of all literals and only admit the rule's regexp.
	ordered bool
}

// match reports whether any branch passes against the folded message.
//
//ldvet:hotpath
func (f *prefilter) match(folded []byte) bool {
	for _, br := range f.branches {
		if f.ordered {
			if chainMatch(br, folded) {
				return true
			}
			continue
		}
		all := true
		for _, lit := range br {
			if !bytes.Contains(folded, lit) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// chainMatch reports whether the chain's literals appear in order, each
// starting at or after the end of the previous one.
//
//ldvet:hotpath
func chainMatch(chain [][]byte, folded []byte) bool {
	pos := 0
	for _, lit := range chain {
		i := bytes.Index(folded[pos:], lit)
		if i < 0 {
			return false
		}
		pos += i + len(lit)
	}
	return true
}

// litString renders a literal node as a lowercase ASCII string. ok is false
// for empty or non-ASCII literals, or — because chain hits decide matches
// against folded text — literals with letters that the pattern matches
// case-sensitively.
func litString(re *syntax.Regexp) (string, bool) {
	folded := re.Flags&syntax.FoldCase != 0
	var b strings.Builder
	for _, r := range re.Rune {
		lr := unicode.ToLower(r)
		if lr >= 0x80 {
			return "", false
		}
		if lr != unicode.ToUpper(lr) && !folded {
			return "", false // cased letter outside (?i)
		}
		b.WriteRune(lr)
	}
	if b.Len() == 0 {
		return "", false
	}
	return b.String(), true
}

// isGap reports whether the node is a ".*"-style unbounded gap.
func isGap(re *syntax.Regexp) bool {
	return re.Op == syntax.OpStar &&
		(re.Sub[0].Op == syntax.OpAnyCharNotNL || re.Sub[0].Op == syntax.OpAnyChar)
}

// orderedChains decomposes a pattern into an alternation of literal chains,
// ok == false when the pattern has any other structure. Each chain is a
// sequence of literals separated by ".*" gaps; adjacent literals (no gap)
// are glued into one.
func orderedChains(re *syntax.Regexp) (chains [][]string, ok bool) {
	switch re.Op {
	case syntax.OpLiteral:
		l, ok := litString(re)
		if !ok {
			return nil, false
		}
		return [][]string{{l}}, true
	case syntax.OpConcat:
		acc := [][]string{{}}
		gap := false
		for _, sub := range re.Sub {
			if isGap(sub) {
				gap = true
				continue
			}
			sc, ok := orderedChains(sub)
			if !ok {
				return nil, false
			}
			if len(acc)*len(sc) > maxBranches {
				return nil, false
			}
			next := make([][]string, 0, len(acc)*len(sc))
			for _, p := range acc {
				for _, s := range sc {
					next = append(next, glueChains(p, s, gap))
				}
			}
			acc = next
			gap = false
		}
		for _, c := range acc {
			if len(c) == 0 {
				return nil, false // no literal at all (e.g. pure ".*")
			}
		}
		return acc, true
	case syntax.OpAlternate:
		var union [][]string
		for _, sub := range re.Sub {
			sc, ok := orderedChains(sub)
			if !ok {
				return nil, false
			}
			union = append(union, sc...)
		}
		if len(union) == 0 || len(union) > maxBranches {
			return nil, false
		}
		return union, true
	case syntax.OpCapture:
		return orderedChains(re.Sub[0])
	default:
		return nil, false
	}
}

// glueChains concatenates chain s onto chain p: across a gap the chains
// join as-is; without one, the boundary literals are contiguous in any
// match and merge into a single search string.
func glueChains(p, s []string, gap bool) []string {
	if len(p) == 0 {
		return s
	}
	out := make([]string, 0, len(p)+len(s))
	out = append(out, p...)
	if gap || len(s) == 0 {
		return append(out, s...)
	}
	out[len(out)-1] += s[0]
	return append(out, s[1:]...)
}

// literalDNF walks a parsed pattern and returns its required-literal DNF:
// lowercase ASCII literal branches of which at least one must be fully
// present in any match. ok is false when no sound filter exists.
func literalDNF(re *syntax.Regexp) (dnf [][]string, ok bool) {
	switch re.Op {
	case syntax.OpLiteral:
		var b strings.Builder
		for _, r := range re.Rune {
			r = unicode.ToLower(r)
			if r >= 0x80 {
				return nil, false
			}
			b.WriteRune(r)
		}
		if b.Len() == 0 {
			return nil, false
		}
		return [][]string{{b.String()}}, true
	case syntax.OpConcat:
		// AND together whatever the children require. Children yielding no
		// filter (x*, char classes, ...) impose no extractable requirement
		// and are skipped — sound, since the remaining requirements are
		// still necessary conditions.
		var acc [][]string
		for _, sub := range re.Sub {
			cand, ok := literalDNF(sub)
			if !ok {
				continue
			}
			if acc == nil {
				acc = cand
				continue
			}
			if merged := andDNF(acc, cand); merged != nil {
				acc = merged
			} else if dnfMoreSelective(cand, acc) {
				acc = cand
			}
		}
		return acc, acc != nil
	case syntax.OpAlternate:
		var union [][]string
		for _, sub := range re.Sub {
			cand, ok := literalDNF(sub)
			if !ok {
				return nil, false
			}
			union = append(union, cand...)
		}
		if len(union) == 0 || len(union) > maxBranches {
			return nil, false
		}
		return union, true
	case syntax.OpCapture:
		return literalDNF(re.Sub[0])
	case syntax.OpPlus:
		return literalDNF(re.Sub[0])
	case syntax.OpRepeat:
		if re.Min >= 1 {
			return literalDNF(re.Sub[0])
		}
		return nil, false
	default:
		return nil, false
	}
}

// andDNF distributes (a1|a2|...) AND (b1|b2|...) into DNF, returning nil
// when the cross product would exceed the branch cap.
func andDNF(a, b [][]string) [][]string {
	if len(a)*len(b) > maxBranches {
		return nil
	}
	out := make([][]string, 0, len(a)*len(b))
	for _, ba := range a {
		for _, bb := range b {
			out = append(out, andBranch(ba, bb))
		}
	}
	return out
}

// andBranch merges two required-literal sets, dropping literals that are
// substrings of another (their presence is implied) and capping the set at
// maxBranchLits by keeping the longest literals.
func andBranch(a, b []string) []string {
	merged := make([]string, 0, len(a)+len(b))
	merged = append(merged, a...)
	merged = append(merged, b...)
	out := make([]string, 0, len(merged))
next:
	for i, l := range merged {
		for j, o := range merged {
			if i == j || !strings.Contains(o, l) {
				continue
			}
			// Drop l if it's a strict substring, or a duplicate not first.
			if len(l) < len(o) || (l == o && i > j) {
				continue next
			}
		}
		out = append(out, l)
	}
	for len(out) > maxBranchLits {
		short := 0
		for i, l := range out {
			if len(l) < len(out[short]) {
				short = i
			}
		}
		out = append(out[:short], out[short+1:]...)
	}
	return out
}

// dnfMoreSelective reports whether filter a is a better prefilter than b:
// its weakest branch carries a longer strongest literal, with fewer
// branches breaking the tie.
func dnfMoreSelective(a, b [][]string) bool {
	am, bm := weakestBranch(a), weakestBranch(b)
	if am != bm {
		return am > bm
	}
	return len(a) < len(b)
}

// weakestBranch returns the minimum over branches of the branch's longest
// literal length.
func weakestBranch(dnf [][]string) int {
	m := -1
	for _, br := range dnf {
		longest := 0
		for _, l := range br {
			if len(l) > longest {
				longest = len(l)
			}
		}
		if m < 0 || longest < m {
			m = longest
		}
	}
	return m
}

// filterOf extracts the literal prefilter for one compiled rule pattern.
// It returns nil when the pattern yields no sound filter, in which case the
// rule's regexp must always run.
func filterOf(pattern string) *prefilter {
	re, err := syntax.Parse(pattern, syntax.Perl)
	if err != nil {
		return nil
	}
	re = re.Simplify()
	dnf, ordered := orderedChains(re)
	if !ordered {
		var ok bool
		dnf, ok = literalDNF(re)
		if !ok {
			return nil
		}
	}
	f := &prefilter{branches: make([][][]byte, len(dnf)), ordered: ordered}
	for i, br := range dnf {
		f.branches[i] = make([][]byte, len(br))
		for j, l := range br {
			f.branches[i][j] = []byte(l)
		}
	}
	return f
}

// LiteralAnchors reports the extracted anchor literals of a pattern: the
// union of its filter branches, of which at least one literal must appear
// in any matching message, or nil when no sound filter exists (the rule
// cannot be prefiltered). Exported for rule linting: a rule without anchors
// forces the regexp slow path on every message.
func LiteralAnchors(pattern string) []string {
	f := filterOf(pattern)
	if f == nil {
		return nil
	}
	var out []string
	for _, br := range f.branches {
		for _, l := range br {
			out = append(out, string(l))
		}
	}
	return out
}

// Prefilter is the exported view of one rule's literal prefilter, for
// soundness cross-checking (internal/rulecheck) and fuzzing. It evaluates
// with exactly the code the classifier hot path runs, so a verifier
// exercising it proves something about classification itself.
type Prefilter struct {
	f prefilter
}

// ExtractPrefilter extracts the literal prefilter the classifier would use
// for pattern, or nil when the pattern yields no sound filter (the rule's
// regexp always runs, so there is nothing to verify).
func ExtractPrefilter(pattern string) *Prefilter {
	f := filterOf(pattern)
	if f == nil {
		return nil
	}
	return &Prefilter{f: *f}
}

// NewPrefilter builds a prefilter from explicit branches, bypassing
// extraction. It exists so verifier tests can construct a deliberately
// desynchronized filter and prove the soundness check rejects it; the
// classifier itself only ever uses ExtractPrefilter.
func NewPrefilter(branches [][]string, ordered bool) *Prefilter {
	p := &Prefilter{f: prefilter{ordered: ordered}}
	p.f.branches = make([][][]byte, len(branches))
	for i, br := range branches {
		p.f.branches[i] = make([][]byte, len(br))
		for j, l := range br {
			p.f.branches[i][j] = []byte(l)
		}
	}
	return p
}

// Ordered reports whether the filter is a tier-1 ordered-chain
// decomposition: a branch hit classifies a newline-free message outright,
// with no regexp call. Unordered (tier-2) filters only admit the regexp.
func (p *Prefilter) Ordered() bool { return p.f.ordered }

// Branches returns the filter's literal branches (ordered chains or
// unordered required-literal sets, per Ordered).
func (p *Prefilter) Branches() [][]string {
	out := make([][]string, len(p.f.branches))
	for i, br := range p.f.branches {
		out[i] = make([]string, len(br))
		for j, l := range br {
			out[i][j] = string(l)
		}
	}
	return out
}

// Match reports whether the filter passes on msg, applying the same
// case-folding the classifier applies before its branch scan.
func (p *Prefilter) Match(msg []byte) bool {
	return p.f.match(appendFolded(nil, msg))
}

// foldPool holds reusable scratch buffers for case-folding messages.
var foldPool = sync.Pool{New: func() any { return new(foldBuf) }}

type foldBuf struct{ b []byte }

// appendFolded lowercases ASCII letters of src into dst. The two non-ASCII
// runes that case-fold onto ASCII under (?i) — U+212A KELVIN SIGN (folds
// with 'k') and U+017F LATIN SMALL LETTER LONG S (folds with 's') — are
// rewritten to their ASCII folds so the prefilter cannot miss a message the
// regexp would match. All other bytes pass through unchanged.
//
//ldvet:hotpath
func appendFolded(dst, src []byte) []byte {
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch {
		case c < 0x80:
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			dst = append(dst, c)
		case c == 0xe2 && i+2 < len(src) && src[i+1] == 0x84 && src[i+2] == 0xaa:
			dst = append(dst, 'k') // U+212A
			i += 2
		case c == 0xc5 && i+1 < len(src) && src[i+1] == 0xbf:
			dst = append(dst, 's') // U+017F
			i++
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// ClassifyBytes is Classify over a byte view of the message; it does not
// retain msg and does not allocate on the steady-state path.
//
//ldvet:hotpath
func (c *Classifier) ClassifyBytes(msg []byte) (Category, Severity) {
	fb := foldPool.Get().(*foldBuf)
	fb.b = appendFolded(fb.b[:0], msg)
	// Ordered-chain hits decide the match outright only on newline-free
	// messages: ".*" gaps cannot cross a '\n', which ordered search ignores.
	exact := bytes.IndexByte(fb.b, '\n') < 0
	for i := range c.rules {
		if f := c.filters[i]; f != nil {
			if !f.match(fb.b) {
				continue
			}
			if f.ordered && exact {
				foldPool.Put(fb)
				return c.rules[i].Category, c.rules[i].Severity
			}
		}
		if c.rules[i].Pattern.Match(msg) {
			foldPool.Put(fb)
			return c.rules[i].Category, c.rules[i].Severity
		}
	}
	foldPool.Put(fb)
	return Unclassified, SevInfo
}
