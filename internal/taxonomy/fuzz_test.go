package taxonomy_test

import (
	"fmt"
	"strings"
	"testing"

	"logdiver/internal/taxonomy"
)

// FuzzReadRules checks the rule-file parser never panics, and that every
// accepted rule set survives a WriteRules→ReadRuleFile round trip: parsed
// names can never contain whitespace or a leading '#', so the writer must
// accept them, and the re-parsed rules must be identical. This pins the
// round-trip contract the two functions share.
func FuzzReadRules(f *testing.F) {
	for _, seed := range []string{
		"",
		"# only a comment\n",
		"r1 KERNEL_PANIC CRIT panic pattern here\n",
		"gpu-thermal GPU_BUS CRIT (?i)gpu thermal shutdown\nraid FS_UNAVAIL ERROR raid degraded\n",
		"r1 NOT_A_CATEGORY CRIT x\n",
		"r1 KERNEL_PANIC LOUD x\n",
		"r1 KERNEL_PANIC CRIT [unclosed\n",
		"too few fields\n",
		"a HW_MEM_UE CRIT x{1,3} y | z\n",
		"\tr2   HW_MEM_CE\tWARN   correct(ed|able)\n",
		"r3 SW_OS ERROR .*\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		rules, err := taxonomy.ReadRuleFile(strings.NewReader(s))
		if err != nil {
			return
		}
		var buf strings.Builder
		if err := taxonomy.WriteRules(&buf, rules); err != nil {
			t.Fatalf("accepted rules from %q but WriteRules failed: %v", s, err)
		}
		back, err := taxonomy.ReadRuleFile(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("round trip of %q failed to parse: %v\nwritten: %q", s, err, buf.String())
		}
		if len(back) != len(rules) {
			t.Fatalf("round trip of %q: %d rules became %d", s, len(rules), len(back))
		}
		for i := range rules {
			if back[i].Name != rules[i].Name ||
				back[i].Category != rules[i].Category ||
				back[i].Severity != rules[i].Severity ||
				back[i].Pattern.String() != rules[i].Pattern.String() {
				t.Fatalf("round trip of %q changed rule %d: %+v -> %+v", s, i, rules[i], back[i])
			}
		}
	})
}

// manyRules renders n one-literal rules, so the automaton carries n
// distinct literals that share prefixes ("lit0001x", "lit0002x", ...).
func manyRules(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "r%d SW_OS ERROR (?i)lit%04dx.*(fail|error)\n", i, i)
	}
	return b.String()
}

// FuzzClassifyBytes is the oracle for the automaton and for the literal
// filters it is built from: a classifier built from a fuzzer-chosen rule
// file must classify every message exactly as the regexp-only reference
// does. Under a single rule that holds the extractor to both directions of
// soundness: a filter that rejects a message its regexp matches, and an
// exact chain that passes a newline-free message its regexp rejects, each
// change the verdict. The rule-set seeds aim at what an Aho–Corasick build
// gets wrong: literals that are prefixes, suffixes and infixes of one
// another, the same literal in several rules, a literal repeated inside one
// chain, more literals than fit one or four set words, rules without a
// filter between rules with one, and no rules at all. The one-rule seeds
// aim at the extractor: gaps, optional pieces, small classes, case folding
// and newlines.
func FuzzClassifyBytes(f *testing.F) {
	var builtin strings.Builder
	if err := taxonomy.WriteRules(&builtin, taxonomy.Default().Rules()); err != nil {
		f.Fatal(err)
	}
	nested := "whole HW_CPU CRIT (?i)fault\nhead HW_CPU ERROR (?i)fa.*x\ntail HW_CPU WARN (?i)ult.*y\nmid HW_CPU INFO (?i)aul\n"
	seeds := []struct{ rules, msg string }{
		{builtin.String(), "Lustre: request x99 timed out after 100s, resending"},
		{builtin.String(), "Machine Check Exception:\nuncorrected DRAM error"},
		{nested, "defaULT y"},
		{nested, "fa ult x"},
		{"first SW_OS ERROR (?i)alps.*error\nsecond SW_ALPS ERROR (?i)apsched.*error|alps\n", "ALPS said: error"},
		{"twice SW_OS ERROR (?i)aa.*a\n", "aaa"},
		{"twice SW_OS ERROR (?i)aa.*a\n", "aa"},
		{"thrice SW_OS ERROR (?i)ab.*ab.*ab\n", "ababab"},
		{"cased KERNEL_PANIC CRIT kernel panic\nany SW_OS INFO [0-9]{3}\nexact SW_ALPS ERROR (?i)apinit.*fail\n", "apinit 12 FAIL 345"},
		{"dnf FS_TIMEOUT WARN (?i)(timeout|slow)[0-9]+ on (ost|mdt)\n", "ost: SLOW7 on OST"},
		{"folds SW_OS ERROR (?i)kernel.*signal\n", "\u212aernel \u017fignal"},
		{manyRules(70), "LIT0069X did not FAIL"},
		{manyRules(70), "lit0069 error"},
		{manyRules(300), "lit0007x lit0299x error"},
		{"", "anything"},
	}
	for _, s := range seeds {
		f.Add(s.rules, []byte(s.msg))
	}
	for _, s := range []struct{ pattern, msg string }{
		{`machine check exception`, "Machine Check Exception on nid 1"},
		{`(?i)lustre(fs)? (error|timeout)`, "LustreFS TIMEOUT: recovery"},
		{`kernel panic - not syncing`, "Kernel panic - not syncing: fatal"},
		{`L[0-3] cache error`, "L2 cache error detected"},
		{`ec_node_(failed|halt)`, "event ec_node_halt received"},
		{`ap(kill|sys) .* exit`, "apsys x exit"},
		{`nmi .* received`, "nmi\nreceived"},
		{`(?i)emergency power off`, "EMERGENCY POWER OFF\u212a"},
		{`seg(fault|v) at 0x[0-9a-f]+`, "segv at 0xdeadbeef"},
		{`a{2,5}b?c`, "aaac"},
		// A gap at the edge of a group or next to an empty alternative, each
		// with a message only the gapped chain matches.
		{`(?i)lustre(.*timeout)`, "Lustre: request timeout"},
		{`(?i)a(.*b)`, "a-b"},
		{`(?i)(a.*)b`, "a-b"},
		{`(?i)foo(.*bar|baz)`, "foo bar"},
		{`(?i)a.*(b)?c`, "a-c"},
		{`(?i)timed? ?out`, "timedxout"},
		{`(?i)double[- ]bit`, "double_bit"},
		{`(?i)ost[0-9a-f]*.*down`, "ost00fz is\ndown"},
	} {
		f.Add("r SW_OS ERROR "+s.pattern+"\n", []byte(s.msg))
	}
	f.Fuzz(func(t *testing.T, rulesText string, msg []byte) {
		rules, err := taxonomy.ReadRuleFile(strings.NewReader(rulesText))
		if err != nil {
			return
		}
		cls := taxonomy.NewClassifier(rules)
		wantCat, wantSev := cls.Classify(string(msg))
		gotCat, gotSev := cls.ClassifyBytes(msg)
		if gotCat != wantCat || gotSev != wantSev {
			t.Fatalf("ClassifyBytes(%q) = (%v, %v), Classify = (%v, %v) under rules:\n%s",
				msg, gotCat, gotSev, wantCat, wantSev, rulesText)
		}
	})
}
