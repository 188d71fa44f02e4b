package taxonomy_test

import (
	"math/rand"
	"testing"

	"logdiver/internal/errlog"
	"logdiver/internal/taxonomy"
)

var benchSink taxonomy.Category

// BenchmarkClassifyBytes measures ClassifyBytes per category over the
// messages errlog.Render produces for it (16 seeded variants each, cycled),
// plus one line no rule matches. A developer tool, not a gate: it exists so
// "messages decided by an early rule did not get slower" is a number.
func BenchmarkClassifyBytes(b *testing.B) {
	cls := taxonomy.Default()
	run := func(name string, msgs [][]byte) {
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
	rng := rand.New(rand.NewSource(11))
	for _, cat := range taxonomy.Categories() {
		msgs := make([][]byte, 16)
		for i := range msgs {
			msgs[i] = []byte(errlog.Render(cat, "c1-3c2s7n1", rng))
		}
		run(cat.String(), msgs)
	}
	run(taxonomy.Unclassified.String(), [][]byte{
		[]byte("user application wrote something weird to the console at step 12345"),
	})
}
