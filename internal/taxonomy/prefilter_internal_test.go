package taxonomy

import (
	"reflect"
	"regexp/syntax"
	"testing"

	"logdiver/internal/raceflag"
)

func parsed(t *testing.T, pattern string) *syntax.Regexp {
	t.Helper()
	re, err := syntax.Parse(pattern, syntax.Perl)
	if err != nil {
		t.Fatalf("parse %q: %v", pattern, err)
	}
	return re.Simplify()
}

// TestOrderedChainsExtraction pins the tier-1 decompositions: gap-separated
// literals become multi-literal chains, adjacent literals glue into one
// search string, and structures the decomposition cannot represent exactly
// are rejected (falling back to tier 2).
func TestOrderedChainsExtraction(t *testing.T) {
	tests := []struct {
		pattern string
		want    [][]string
		ok      bool
	}{
		{`(?i)machine check.*(cache|tlb)`, [][]string{
			{"machine check", "cache"}, {"machine check", "tlb"},
		}, true},
		{`(?i)rerout(e|ing) (started|complete)`, [][]string{
			{"reroute started"}, {"reroute complete"},
			{"rerouting started"}, {"rerouting complete"},
		}, true},
		{`(?i)kernel panic`, [][]string{{"kernel panic"}}, true},
		{`(?i)a.*b.*c`, [][]string{{"a", "b", "c"}}, true},
		{`(?i)err[0-9]+`, nil, false},    // char class: tier 2 only
		{`(?i)time(d)? out`, nil, false}, // optional group: not exact
		{`(?i).*`, nil, false},           // no literal at all
		{`Cache`, nil, false},            // case-sensitive letters: fold-unsafe
	}
	for _, tt := range tests {
		got, ok := orderedChains(parsed(t, tt.pattern))
		if ok != tt.ok {
			t.Errorf("orderedChains(%q) ok = %v, want %v", tt.pattern, ok, tt.ok)
			continue
		}
		if ok && !reflect.DeepEqual(got, tt.want) {
			t.Errorf("orderedChains(%q) = %v, want %v", tt.pattern, got, tt.want)
		}
	}
}

// TestChainMatchOrdering: literals must appear in order, each beginning at
// or after the end of the previous hit.
func TestChainMatchOrdering(t *testing.T) {
	chain := func(ls ...string) [][]byte {
		out := make([][]byte, len(ls))
		for i, l := range ls {
			out[i] = []byte(l)
		}
		return out
	}
	tests := []struct {
		chain []string
		text  string
		want  bool
	}{
		{[]string{"ab", "cd"}, "xx ab yy cd zz", true},
		{[]string{"ab", "cd"}, "cd ab", false}, // wrong order
		{[]string{"aa", "a"}, "aaa", true},     // second starts after first ends
		{[]string{"aa", "a"}, "aa", false},     // no room left
		{[]string{"x"}, "", false},
	}
	for _, tt := range tests {
		if got := chainMatch(chain(tt.chain...), []byte(tt.text)); got != tt.want {
			t.Errorf("chainMatch(%v, %q) = %v, want %v", tt.chain, tt.text, got, tt.want)
		}
	}
}

// TestAppendFolded: ASCII letters lowercase, the two non-ASCII runes that
// case-fold onto ASCII rewrite to their folds, everything else is unchanged.
func TestAppendFolded(t *testing.T) {
	tests := []struct{ in, want string }{
		{"Machine Check", "machine check"},
		{"ABCxyz019;=", "abcxyz019;="},
		{"\u212aelvin", "kelvin"}, // U+212A KELVIN SIGN -> k
		{"\u017fignal", "signal"}, // U+017F LONG S -> s
		{"café Ü", "café Ü"},      // other non-ASCII passes through
		{"", ""},
	}
	for _, tt := range tests {
		if got := string(appendFolded(nil, []byte(tt.in))); got != tt.want {
			t.Errorf("appendFolded(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

// TestLitStringCaseSensitivity: literals with cased letters are usable only
// under (?i), because chain hits are decided against folded text.
func TestLitStringCaseSensitivity(t *testing.T) {
	if _, ok := litString(parsed(t, "Cache")); ok {
		t.Error("litString accepted case-sensitive cased literal")
	}
	got, ok := litString(parsed(t, "(?i)Cache"))
	if !ok || got != "cache" {
		t.Errorf("litString((?i)Cache) = (%q, %v), want (cache, true)", got, ok)
	}
	if _, ok := litString(parsed(t, "123;=")); !ok {
		t.Error("litString rejected caseless literal outside (?i)")
	}
	if _, ok := litString(parsed(t, "(?i)café")); ok {
		t.Error("litString accepted non-ASCII literal")
	}
}

// TestDefaultRulesAllPrefiltered: every built-in rule must extract a sound
// literal filter — a nil filter forces the regexp slow path on every
// message — and the bulk of them must reach the exact ordered tier.
func TestDefaultRulesAllPrefiltered(t *testing.T) {
	rules := defaultRules()
	ordered := 0
	for _, r := range rules {
		f := filterOf(r.Pattern.String())
		if f == nil {
			t.Errorf("rule %s (%s) has no prefilter", r.Name, r.Pattern)
			continue
		}
		if f.ordered {
			ordered++
		}
		if len(f.branches) == 0 || len(f.branches) > maxBranches {
			t.Errorf("rule %s: %d branches", r.Name, len(f.branches))
		}
	}
	if ordered*2 < len(rules) {
		t.Errorf("only %d/%d default rules reach the ordered tier", ordered, len(rules))
	}
}

// TestClassifyBytesZeroAlloc gates the classification fast path for both a
// rule hit (ordered tier, no regexp) and an unclassified message.
func TestClassifyBytesZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items under the race detector; the fold-buffer pool misses and allocates")
	}
	cls := Default()
	hit := []byte("Machine Check Exception: corrected DRAM error on c1-2c0s3n1 bank 4 DIMM 9 syndrome 0x1a2b")
	miss := []byte("user application wrote something weird")
	cls.ClassifyBytes(hit) // warm the fold pool
	if n := testing.AllocsPerRun(200, func() {
		cls.ClassifyBytes(hit)
		cls.ClassifyBytes(miss)
	}); n != 0 {
		t.Errorf("ClassifyBytes allocates %.1f allocs/op on the fast path, want 0", n)
	}
}
