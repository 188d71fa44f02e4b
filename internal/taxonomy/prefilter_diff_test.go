package taxonomy_test

import (
	"math/rand"
	"strings"
	"testing"

	"logdiver/internal/errlog"
	"logdiver/internal/taxonomy"
)

// classifyDiffCorpus builds the message set the byte classifier is pinned
// against: every rendered variant of every category, hand-written known
// messages, and adversarial mutations of each — uppercasing (exercises the
// fold path), an injected newline (demotes ordered-chain hits to
// prefilter + regexp confirmation), the two non-ASCII runes that case-fold
// onto ASCII, and reversed text (literals present, order destroyed).
func classifyDiffCorpus() []string {
	rng := rand.New(rand.NewSource(7))
	var base []string
	for _, cat := range taxonomy.Categories() {
		for i := 0; i < 25; i++ {
			base = append(base, errlog.Render(cat, "c1-3c2s7n1", rng))
		}
	}
	base = append(base,
		"Machine Check Exception: corrected DRAM error on c1-2c0s3n1 bank 4 DIMM 9 syndrome 0x1a2b",
		"Machine Check Exception: uncorrected DRAM error on c1-2c0s3n1 bank 4 addr 0x00000a",
		"NVRM: Xid (PCI:0000:02:00): 79, GPU has fallen off the bus.",
		"Lustre: request x99 timed out after 100s, resending",
		"Kernel panic - not syncing: Fatal exception in interrupt on c2-1c0s4n2",
		"user application wrote something weird",
		"",
		// Every optional variant of the rules that became exact, and the
		// near misses one character away from each.
		"Lustre: request x99 timeout", "Lustre: request x99 time out",
		"Lustre: request x99 timedout", "Lustre: request x99 timed out",
		"Lustre: request x99 timedxout", "Lustre: request x99 timed  out",
		"request timed out on lustre", "request timeout on lustre",
		"GPU 3: double bit error", "GPU 3: double-bit error",
		"GPU 3: double bit ecc error", "GPU 3: double-bit ECC error",
		"GPU 3: double_bit error", "GPU 3: doublebit error", "GPU 3: double bit ecc  error",
		"blade controller fault", "l0 fault", "l0c failure", "L0C controller unresponsive",
		"mezzanine controller  fault", "l0cc fault", "l0controller fault",
		"OST0012-osc unavailable", "mdt inactive", "ost00fz went quiet, now unavailable",
		"ost0012 unavail", "unavailable ost0012",
	)
	out := make([]string, 0, len(base)*5)
	for _, m := range base {
		out = append(out, m, strings.ToUpper(m))
		if len(m) > 4 {
			mid := len(m) / 2
			out = append(out, m[:mid]+"\n"+m[mid:])
		}
		out = append(out,
			strings.NewReplacer("k", "\u212a", "s", "\u017f").Replace(m))
		words := strings.Fields(m)
		for i, j := 0, len(words)-1; i < j; i, j = i+1, j-1 {
			words[i], words[j] = words[j], words[i]
		}
		out = append(out, strings.Join(words, " "))
	}
	return out
}

// TestClassifyBytesMatchesClassify pins ClassifyBytes to the string
// reference over the full corpus: identical category and severity on every
// message, including the mutations designed to break each fast-path tier.
func TestClassifyBytesMatchesClassify(t *testing.T) {
	cls := taxonomy.Default()
	for _, msg := range classifyDiffCorpus() {
		wantCat, wantSev := cls.Classify(msg)
		gotCat, gotSev := cls.ClassifyBytes([]byte(msg))
		if gotCat != wantCat || gotSev != wantSev {
			t.Errorf("ClassifyBytes(%q) = (%v, %v), Classify = (%v, %v)",
				msg, gotCat, gotSev, wantCat, wantSev)
		}
	}
}
