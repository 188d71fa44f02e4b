// Literal filters for classification. ClassifyBytes never walks the rule
// list: NewClassifier compiles the literals of every rule's filter into one
// automaton (scan.go), a message is scanned once, and the scan itself
// reports which rules' filters passed. What a pass means depends on how the
// filter was extracted from the rule's syntax tree:
//
//   - Exact (ordered chains). When the pattern decomposes into an
//     alternation of literal chains — literals joined by ".*" gaps, e.g.
//     `machine check.*(cache|tlb)` — the unanchored regexp matches a
//     newline-free message iff some chain's literals appear in order,
//     non-overlapping, in the case-folded text. A chain hit then decides
//     the rule with no regexp call. A message containing '\n' (".*" cannot
//     cross it) demotes the hit to a prefilter and the regexp confirms.
//     The decomposition distributes concatenation over alternation, where
//     an alternative may be: a literal; `x?` (x or nothing); a small class
//     of caseless ASCII characters such as `[- ]` (one single-character
//     literal each); a group or alternation of these. A class star beside
//     a gap (`[0-9a-f]*.*`) adds nothing to the gap and is dropped.
//     Because an alternative can be EMPTY, "was there a gap between these
//     two literals" is not a property of the concatenation but of each
//     chain: in `a.*(b)?c` the chain without b still has its gap, and in
//     `a(.*b|c)` only one of the two chains has one. So a chain under
//     construction carries its own gap-before / gap-after flags, and two
//     literals glue into one search string only when neither side has one.
//
//   - Admitting (unordered DNF). Otherwise the tree is folded into
//     branches of literals that must ALL appear for the pattern to match
//     (one branch per alternation arm): a literal requires itself; a
//     concatenation AND-combines its children (cross product, capped); an
//     alternation unions its branches and fails if any branch yields none;
//     x+ and min>=1 repeats require whatever x requires; optional forms
//     require nothing. A covered branch only admits the rule — the regexp
//     remains the confirmation step.
//
// Rules whose tree yields no usable filter (or any non-ASCII literal) run
// their regexp on every message, so external rule files degrade to the
// unfiltered behavior instead of misclassifying; `logdiver lint-rules`
// names every rule that still runs a regexp (regexp-on-hot-path).

package taxonomy

import (
	"bytes"
	"math/bits"
	"regexp/syntax"
	"strings"
	"unicode"
)

// maxChains bounds the chains of an exact decomposition. The automaton
// evaluates every chain in the same pass, so the cap only keeps cross
// products of optional pieces from exploding; the widest built-in rule
// (blade-fault, 4x2x3) needs 24.
const maxChains = 32

// maxBranches bounds the branches of an unordered filter; a wider
// alternation admits the regexp too often to be worth extracting.
const maxBranches = 12

// maxBranchLits bounds the literals per unordered branch (the longest are
// kept); the scan tracks a branch's coverage in one word.
const maxBranchLits = 4

// maxClassSingles bounds the character classes the exact tier expands into
// one alternative per member.
const maxClassSingles = 4

// prefilter is one rule's literal filter: either an exact ordered-chain
// decomposition or an unordered required-literal DNF. Literals are
// lowercase ASCII, matched against case-folded text.
type prefilter struct {
	branches [][]string
	// ordered marks branches as ordered chains: a branch passes when its
	// literals appear in order, and a pass IS a match for newline-free
	// messages. Unordered branches pass when all their literals appear and
	// only admit the rule's regexp.
	ordered bool
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

// besideGap reports whether subs[i], a character-class star, touches a gap
// directly or through other class stars. On a newline-free message the gap
// already matches anything the star could, so C*.* and .*C* are the gap.
func besideGap(subs []*syntax.Regexp, i int) bool {
	if subs[i].Op != syntax.OpStar || subs[i].Sub[0].Op != syntax.OpCharClass {
		return false
	}
	for _, d := range [2]int{-1, 1} {
		j := i + d
		for j >= 0 && j < len(subs) && subs[j].Op == syntax.OpStar && subs[j].Sub[0].Op == syntax.OpCharClass {
			j += d
		}
		if j >= 0 && j < len(subs) && isGap(subs[j]) {
			return true
		}
	}
	return false
}

// chain is one alternative of an exact decomposition under construction:
// literals separated by gaps, plus whether a gap precedes the first and
// follows the last. A chain without literals is the empty alternative (or a
// bare gap) and has both flags equal.
type chain struct {
	lits                []string
	gapBefore, gapAfter bool
}

// then concatenates s onto p. Across a gap the literals join as-is; without
// one, the boundary literals are contiguous in any match and merge into a
// single search string.
func (p chain) then(s chain) chain {
	out := chain{
		gapBefore: p.gapBefore || (len(p.lits) == 0 && s.gapBefore),
		gapAfter:  s.gapAfter || (len(s.lits) == 0 && p.gapAfter),
	}
	out.lits = append(append(make([]string, 0, len(p.lits)+len(s.lits)), p.lits...), s.lits...)
	if n := len(p.lits); n > 0 && len(s.lits) > 0 && !p.gapAfter && !s.gapBefore {
		out.lits[n-1] += s.lits[0]
		out.lits = append(out.lits[:n], out.lits[n+1:]...)
	}
	return out
}

// orderedChains decomposes a pattern into an alternation of literal chains,
// ok == false when the pattern has any other structure or would need more
// than maxChains of them.
func orderedChains(re *syntax.Regexp) (chains []chain, ok bool) {
	switch re.Op {
	case syntax.OpLiteral:
		l, ok := litString(re)
		return []chain{{lits: []string{l}}}, ok
	case syntax.OpEmptyMatch:
		return []chain{{}}, true
	case syntax.OpStar:
		return []chain{{gapBefore: true, gapAfter: true}}, isGap(re)
	case syntax.OpQuest:
		chains, ok = orderedChains(re.Sub[0])
		return append(chains, chain{}), ok && len(chains) < maxChains
	case syntax.OpCharClass:
		// re.Rune holds [lo, hi] pairs. Only caseless ASCII members: a
		// letter would need its other case, which folding already covers
		// for literals but not for a class the parser may have widened.
		for i := 0; i+1 < len(re.Rune); i += 2 {
			for r := re.Rune[i]; r <= re.Rune[i+1]; r++ {
				if r >= 0x80 || unicode.IsLetter(r) || len(chains) == maxClassSingles {
					return nil, false
				}
				chains = append(chains, chain{lits: []string{string(r)}})
			}
		}
		return chains, len(chains) > 0
	case syntax.OpConcat:
		chains = []chain{{}}
		for i, sub := range re.Sub {
			if besideGap(re.Sub, i) {
				continue
			}
			sc, ok := orderedChains(sub)
			if !ok || len(chains)*len(sc) > maxChains {
				return nil, false
			}
			next := make([]chain, 0, len(chains)*len(sc))
			for _, p := range chains {
				for _, s := range sc {
					next = append(next, p.then(s))
				}
			}
			chains = next
		}
		return chains, true
	case syntax.OpAlternate:
		for _, sub := range re.Sub {
			sc, ok := orderedChains(sub)
			if !ok {
				return nil, false
			}
			chains = append(chains, sc...)
		}
		return chains, len(chains) > 0 && len(chains) <= maxChains
	case syntax.OpCapture:
		return orderedChains(re.Sub[0])
	default:
		return nil, false
	}
}

// exactFilter returns the pattern's exact decomposition as a filter, nil
// when there is none. A chain without a literal (`.*`, `(x)?`) matches
// every message; such a pattern has no literal filter at all.
func exactFilter(re *syntax.Regexp) *prefilter {
	chains, ok := orderedChains(re)
	if !ok {
		return nil
	}
	f := &prefilter{ordered: true}
	for _, c := range chains {
		if len(c.lits) == 0 {
			return nil
		}
		f.branches = append(f.branches, c.lits)
	}
	return f
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
	if f := exactFilter(re); f != nil {
		return f
	}
	dnf, ok := literalDNF(re)
	if !ok {
		return nil
	}
	return &prefilter{branches: dnf}
}

// LiteralFilter returns the literal filter the classifier extracts from
// pattern: its branches of lowercase ASCII literals, and whether they are
// exact ordered chains (a chain hit decides a newline-free message with no
// regexp call) or unordered required-literal sets that only admit the
// regexp. branches is nil when the pattern yields no filter and its regexp
// runs on every message.
func LiteralFilter(pattern string) (branches [][]string, exact bool) {
	f := filterOf(pattern)
	if f == nil {
		return nil, false
	}
	return f.branches, f.ordered
}

// ClassifyBytes returns the category and severity of the first rule whose
// pattern matches msg; unmatched messages return (Unclassified, SevInfo). It
// does not retain msg and does not allocate on the steady-state path. One
// scan reports every rule whose filter passed; those, and the rules without
// a filter, are then decided in rule order — first match wins.
func (c *Classifier) ClassifyBytes(msg []byte) (Category, Severity) {
	sc := c.m.scan(msg)
	// Ordered-chain hits decide the match outright only on newline-free
	// messages: ".*" gaps cannot cross a '\n', which the scan ignores.
	exact := bytes.IndexByte(msg, '\n') < 0
	cat, sev := Unclassified, SevInfo
decide:
	for w, unfiltered := range c.m.unfiltered {
		decided := sc.hit[w] & c.m.ordered[w]
		if !exact {
			decided = 0
		}
		for cand := sc.hit[w] | unfiltered; cand != 0; cand &= cand - 1 {
			r := &c.rules[w<<6+bits.TrailingZeros64(cand)]
			if decided&cand&-cand != 0 || r.Pattern.Match(msg) {
				cat, sev = r.Category, r.Severity
				break decide
			}
		}
	}
	sc.release()
	return cat, sev
}
