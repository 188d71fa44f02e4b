package taxonomy

import (
	"fmt"
	"reflect"
	"regexp"
	"regexp/syntax"
	"strings"
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

// TestOrderedChainsExtraction pins the exact decompositions: gap-separated
// literals become multi-literal chains, adjacent literals glue into one
// search string, optional pieces and small caseless classes multiply the
// chains out, a gap stays with the chain it belongs to even at the edge of
// a group or next to an empty alternative, and structures the decomposition
// cannot represent exactly are rejected (falling back to the unordered DNF).
func TestOrderedChainsExtraction(t *testing.T) {
	tests := []struct {
		pattern string
		want    [][]string
	}{
		{`(?i)machine check.*(cache|tlb)`, [][]string{
			{"machine check", "cache"}, {"machine check", "tlb"},
		}},
		{`(?i)rerout(e|ing) (started|complete)`, [][]string{
			{"reroute started"}, {"reroute complete"},
			{"rerouting started"}, {"rerouting complete"},
		}},
		{`(?i)kernel panic`, [][]string{{"kernel panic"}}},
		{`(?i)a.*b.*c`, [][]string{{"a", "b", "c"}}},
		{`(?i)err[0-9]+`, nil}, // char class: unordered DNF only
		{`(?i).*`, nil},        // no literal at all
		{`(?i)(ab)?`, nil},     // one alternative has no literal
		{`Cache`, nil},         // case-sensitive letters: fold-unsafe
		{`(?i)[a-c]x`, nil},    // class of letters
		{`[0-9]x`, nil},        // class wider than maxClassSingles
		{`(?i)a[0-9]*b`, nil},  // class star away from any gap

		// x? is x or nothing; the neighbours glue across the nothing.
		{`(?i)time(d)? out`, [][]string{{"timed out"}, {"time out"}}},
		{`(?i)timed? ?out`, [][]string{
			{"timed out"}, {"timedout"}, {"time out"}, {"timeout"},
		}},
		{`(?i)double[- ]bit (ecc )?error`, [][]string{
			{"double bit ecc error"}, {"double bit error"},
			{"double-bit ecc error"}, {"double-bit error"},
		}},
		{`(?i)ost[0-9a-fx-]*.*down`, [][]string{{"ost", "down"}}},
		{`(?i)ost.*[0-9]*[a-f]*down`, [][]string{{"ost", "down"}}},

		// A gap belongs to its chain, not to the concatenation around it.
		{`(?i)lustre(.*timeout)`, [][]string{{"lustre", "timeout"}}},
		{`(?i)a(.*b)`, [][]string{{"a", "b"}}},
		{`(?i)(a.*)b`, [][]string{{"a", "b"}}},
		{`(?i)foo(.*bar|baz)`, [][]string{{"foo", "bar"}, {"foobaz"}}},
		{`(?i)a.*(b)?c`, [][]string{{"a", "bc"}, {"a", "c"}}},
		{`(?i)a(b)?.*c`, [][]string{{"ab", "c"}, {"a", "c"}}},
	}
	for _, tt := range tests {
		var got [][]string
		if f := exactFilter(parsed(t, tt.pattern)); f != nil {
			got = f.branches
		}
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("exactFilter(%q) = %v, want %v", tt.pattern, got, tt.want)
		}
	}
}

// chainMatches reports whether one ordered chain passes the scan of text.
func chainMatches(chain []string, text string) bool {
	sc := newMatcher([]*prefilter{{branches: [][]string{chain}, ordered: true}}).scan([]byte(text))
	defer sc.release()
	return sc.hit[0]&1 != 0
}

// TestChainMatchOrdering: literals must appear in order, each beginning at
// or after the end of the previous hit.
func TestChainMatchOrdering(t *testing.T) {
	tests := []struct {
		chain []string
		text  string
		want  bool
	}{
		{[]string{"ab", "cd"}, "xx ab yy cd zz", true},
		{[]string{"ab", "cd"}, "cd ab", false}, // wrong order
		{[]string{"aa", "a"}, "aaa", true},     // second starts after first ends
		{[]string{"aa", "a"}, "aa", false},     // no room left
		{[]string{"ab", "bc"}, "abc", false},   // overlap is not order
		{[]string{"ab", "bc"}, "abbc", true},
		{[]string{"a", "a", "a"}, "aa", false},
		{[]string{"a", "a", "a"}, "axaxa", true},
		{[]string{"fault", "fa", "ult"}, "fault", false},
		{[]string{"fault", "fa", "ult"}, "default fa..ult", true},
		{[]string{"x"}, "", false},
	}
	for _, tt := range tests {
		if got := chainMatches(tt.chain, tt.text); got != tt.want {
			t.Errorf("chain %v on %q = %v, want %v", tt.chain, tt.text, got, tt.want)
		}
	}
}

// TestScanFolds: the scan reads ASCII letters caselessly and the two
// non-ASCII runes that case-fold onto ASCII as their folds — with literal
// offsets counted in folded bytes, so order checks survive the shrink — and
// nothing else is folded.
func TestScanFolds(t *testing.T) {
	tests := []struct {
		chain []string
		text  string
		want  bool
	}{
		{[]string{"machine check"}, "Machine CHECK", true},
		{[]string{"abcxyz019;="}, "ABCxyz019;=", true},
		{[]string{"kelvin"}, "\u212aelvin", true}, // U+212A KELVIN SIGN -> k
		{[]string{"signal"}, "\u017fignal", true}, // U+017F LONG S -> s
		{[]string{"ks", "sk"}, "\u212a\u017f\u017f\u212a", true},
		{[]string{"ks", "sk"}, "\u212a\u017f\u212a", false}, // 7 bytes, 3 folded: the s is shared
		{[]string{"cafe"}, "café", false},                   // other non-ASCII passes through
		{[]string{"k"}, "\xe2\x84", false},                  // truncated KELVIN SIGN
		{[]string{"u"}, "Ü", false},
	}
	for _, tt := range tests {
		if got := chainMatches(tt.chain, tt.text); got != tt.want {
			t.Errorf("chain %v on %q = %v, want %v", tt.chain, tt.text, got, tt.want)
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

// TestDefaultRulesAllPrefiltered: every built-in rule must decompose
// exactly, so no regexp runs on a newline-free message under the shipped
// taxonomy — a rule that drops to the unordered DNF, or to no filter at all,
// puts its regexp back on the per-line hot path.
func TestDefaultRulesAllPrefiltered(t *testing.T) {
	for _, r := range defaultRules() {
		f := filterOf(r.Pattern.String())
		if f == nil || !f.ordered {
			t.Errorf("rule %s (%s) is not exact: %+v", r.Name, r.Pattern, f)
			continue
		}
		if len(f.branches) == 0 || len(f.branches) > maxChains {
			t.Errorf("rule %s: %d chains", r.Name, len(f.branches))
		}
	}
}

// TestClassifyBytesZeroAlloc gates the classification path: the scan and
// the verdict allocate nothing — on a rule hit, on an unclassified message,
// on the non-ASCII runes the scan folds, and under a rule set an order of
// magnitude larger than the built-in one —
// and where a regexp has to confirm (a message with '\n', a rule whose
// filter is not exact) ClassifyBytes adds nothing to what the regexp call
// itself allocates.
func TestClassifyBytesZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items under the race detector; the scratch pool misses and allocates")
	}
	var many []Rule
	for i := 0; i < 200; i++ {
		many = append(many, Rule{Name: fmt.Sprint("r", i), Category: SoftwareOS, Severity: SevError,
			Pattern: regexp.MustCompile(fmt.Sprintf(`(?i)unit%03d.*(fail|error)|fault%03d`, i, i))})
	}
	admitting := Rule{Name: "counted", Category: SoftwareOS, Severity: SevError,
		Pattern: regexp.MustCompile(`(?i)err[0-9]+ on lnet`)}
	tests := []struct {
		name    string
		cls     *Classifier
		msg     string
		confirm *regexp.Regexp // the regexp that has to run, nil when none may
	}{
		{"exact hit", Default(), "Machine Check Exception: corrected DRAM error on c1-2c0s3n1 bank 4 DIMM 9 syndrome 0x1a2b", nil},
		{"miss", Default(), "user application wrote something weird", nil},
		{"200 rules, last one", NewClassifier(many), "UNIT199 reported an ERROR after fault19", nil},
		{"200 rules, miss", NewClassifier(many), "unit200 reported an error", nil},
		{"newline", Default(), "Lustre: request x99 timed out\nresending", defaultRules()[12].Pattern},
		{"admitting filter", NewClassifier([]Rule{admitting}), "ERR42 on LNet", admitting.Pattern},
		{"admitting filter, literal seen twice", NewClassifier([]Rule{admitting}), "ERR42 on LNet after err7", admitting.Pattern},
		{"folded runes", Default(), "Machine Chec\u212a Exception: corrected DRAM error on \u017focket \u00e9", nil},
	}
	for _, tt := range tests {
		msg := []byte(tt.msg)
		if cat, _ := tt.cls.ClassifyBytes(msg); (cat == Unclassified) != strings.Contains(tt.name, "miss") {
			t.Errorf("%s: classified as %v", tt.name, cat) // also warms the scratch pool
		}
		var gate float64
		if tt.confirm != nil {
			gate = testing.AllocsPerRun(200, func() { tt.confirm.Match(msg) })
		}
		if n := testing.AllocsPerRun(200, func() { tt.cls.ClassifyBytes(msg) }); n > gate {
			t.Errorf("%s: ClassifyBytes allocates %.1f allocs/op, want <= %.1f", tt.name, n, gate)
		}
	}
}
