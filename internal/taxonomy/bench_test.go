package taxonomy_test

import (
	"math/rand"
	"regexp"
	"testing"

	"logdiver/internal/errlog"
	"logdiver/internal/taxonomy"
)

var benchSink taxonomy.Category

// BenchmarkClassifyBytes measures ClassifyBytes per category over the
// messages errlog.Render produces for it (16 seeded variants each, cycled),
// plus one line no rule matches. A developer tool, not a gate: it exists so
// "messages decided by an early rule did not get slower" is a number.
//
// SiteRuleFirst cycles through every category's messages under the built-in
// rules behind one site rule whose filter is not exact. Its regexp runs only
// on messages holding all of its filter's literals ("err", " on lnet"), so
// this is the number the admitting (unordered) filter tier is kept for:
// without that tier the regexp would run on every message.
func BenchmarkClassifyBytes(b *testing.B) {
	run := func(name string, cls *taxonomy.Classifier, msgs [][]byte) {
		b.Run(name, func(b *testing.B) {
			var n int
			for _, m := range msgs {
				n += len(m)
			}
			b.SetBytes(int64(n / len(msgs)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink, _ = cls.ClassifyBytes(msgs[i%len(msgs)])
			}
		})
	}
	cls := taxonomy.Default()
	rng := rand.New(rand.NewSource(11))
	var all [][]byte
	for _, cat := range taxonomy.Categories() {
		msgs := make([][]byte, 16)
		for i := range msgs {
			msgs[i] = []byte(errlog.Render(cat, "c1-3c2s7n1", rng))
		}
		run(cat.String(), cls, msgs)
		all = append(all, msgs...)
	}
	run(taxonomy.Unclassified.String(), cls, [][]byte{
		[]byte("user application wrote something weird to the console at step 12345"),
	})
	site := taxonomy.Rule{Name: "lnet-err", Pattern: regexp.MustCompile(`(?i)err[0-9]+ on lnet`),
		Category: taxonomy.SoftwareOS, Severity: taxonomy.SevError}
	run("SiteRuleFirst", taxonomy.NewClassifier(append([]taxonomy.Rule{site}, cls.Rules()...)), all)
}
