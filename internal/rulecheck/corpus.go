package rulecheck

import (
	"math/rand"

	"logdiver/internal/errlog"
	"logdiver/internal/taxonomy"
)

// defaultCorpus renders the internal/errlog message templates — the same
// Cray-style shapes the synthesizer emits and the study's tables are
// attributed from — into a deterministic reference corpus, corpusPerCategory
// variants per taxonomy category. The differential-firing checks run every
// rule set against this corpus: the built-in rules must classify all of it,
// and site rule files are warned when an earlier rule steals all of a later
// rule's matches on these known shapes.
func defaultCorpus() []string {
	// Deterministic by construction: fixed seed, fixed component names,
	// categories in declaration order.
	rng := rand.New(rand.NewSource(1))
	cnames := []string{"c0-0c0s0n0", "c11-7c1s5n3", "c23-15c2s7n1"}
	var out []string
	for _, cat := range taxonomy.Categories() {
		for i := 0; i < corpusPerCategory; i++ {
			out = append(out, errlog.Render(cat, cnames[i%len(cnames)], rng))
		}
	}
	return out
}
