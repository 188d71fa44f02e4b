package rulecheck

import (
	"math/rand"
	"os"
	"regexp/syntax"
	"strings"
	"testing"
	"unicode"

	"logdiver/internal/taxonomy"
)

// TestClassifyBytesOnWitnesses holds ClassifyBytes to regexp-only
// first-match classification on messages derived from each rule's own
// pattern, for the built-in rules and testdata/shadowed.rules. The
// classifier of the whole set and a one-rule classifier of every rule must
// agree with the regexps on each message; the one-rule classifiers are what
// pins each rule's literal filter in both directions, since a filter that
// rejects a message its regexp matches, or an exact chain that passes a
// newline-free message its regexp rejects, changes that rule's verdict.
func TestClassifyBytesOnWitnesses(t *testing.T) {
	f, err := os.Open("testdata/shadowed.rules")
	if err != nil {
		t.Fatal(err)
	}
	shadowed, err := taxonomy.ReadRuleFile(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, set := range [][]taxonomy.Rule{taxonomy.Default().Rules(), shadowed} {
		var msgs []string
		for _, r := range set {
			msgs = append(msgs, ruleProbes(r, rng)...)
		}
		sets := [][]taxonomy.Rule{set}
		for _, r := range set {
			sets = append(sets, []taxonomy.Rule{r})
		}
		for _, rules := range sets {
			cls := taxonomy.NewClassifier(rules)
			for _, msg := range msgs {
				wantCat, wantSev := taxonomy.Unclassified, taxonomy.SevInfo
				for _, r := range rules {
					if r.Pattern.MatchString(msg) {
						wantCat, wantSev = r.Category, r.Severity
						break
					}
				}
				if gotCat, gotSev := cls.ClassifyBytes([]byte(msg)); gotCat != wantCat || gotSev != wantSev {
					t.Errorf("ClassifyBytes(%q) = (%v, %v), the regexps say (%v, %v); rules %q...",
						msg, gotCat, gotSev, wantCat, wantSev, rules[0].Name)
				}
			}
		}
	}
}

// ruleProbes derives messages from one rule: the strings witnesses
// synthesizes from its syntax tree, each also padded, upper-cased, randomly
// case-flipped and with the non-ASCII runes that fold onto 'k' and 's'
// spliced in; and, when its filter is exact, each chain's literals joined by
// a filler, as is, upper-cased and randomly padded.
func ruleProbes(r taxonomy.Rule, rng *rand.Rand) []string {
	var out []string
	if tree, err := syntax.Parse(r.Pattern.String(), syntax.Perl); err == nil {
		for _, w := range witnesses(r.Pattern, tree.Simplify(), maxWitnesses) {
			flipped := []rune(w)
			for i := range flipped {
				if rng.Intn(2) == 0 {
					flipped[i] = unicode.ToUpper(flipped[i])
				}
			}
			out = append(out, w, "jan 01 00:00:00 "+w, w+" on node c0-0c0s0n0", "... "+w+" ...",
				strings.ToUpper(w), string(flipped),
				strings.Replace(w, "k", "\u212a", 1), strings.Replace(w, "s", "\u017f", 1))
		}
	}
	pad := func() string {
		const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789 ._-"
		b := make([]byte, rng.Intn(6))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	if chains, exact := taxonomy.LiteralFilter(r.Pattern.String()); exact {
		for _, chain := range chains {
			for _, filler := range []string{"", " ", "x", " 0xdeadbeef ", "\t..zz9 "} {
				joined := strings.Join(chain, filler)
				out = append(out, joined, strings.ToUpper(joined), pad()+joined+pad())
			}
		}
	}
	return out
}
