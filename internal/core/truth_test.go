package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"logdiver/internal/correlate"
	"logdiver/internal/gen"
	"logdiver/internal/machine"
	"logdiver/internal/stats"
)

// The truth oracle: the generator knows every run's true outcome, so the
// attribution is scored against it, not against a second implementation of
// itself. A differential test (TestIncrementalMatchesAnalyze and friends)
// cannot see a fault both of its sides share, such as a wrong evidence
// window in correlate; this test can.

// truthSeeds are the generator seeds of the oracle, each over the core
// fixture configuration (testConfig at 3 days).
var truthSeeds = []int64{7, 8, 9}

// truthTally scores one node class's attributions against ground truth.
type truthTally struct {
	// attributed counts runs attributed SYSTEM; correct those among them
	// that truly failed for a system reason.
	attributed, correct int
	// detectable counts true system failures whose fault left log
	// evidence; recovered those among them attributed SYSTEM.
	detectable, recovered int
}

// truthFloors are the floors of each class: the lower Wilson 95 % bound of
// precision and of detectable recall, pooled over truthSeeds, as measured
// when the oracle was introduced (the figures are in CHANGES.md).
var truthFloors = map[machine.NodeClass]struct{ precision, recall float64 }{
	machine.ClassXE: {precision: 0.9127, recall: 0.9731}, // 139/145, 139/139
	machine.ClassXK: {precision: 0.8271, recall: 0.9036}, // 36/38, 36/36
}

// scoreTruth adds runs' attributions to the per-class tallies.
func scoreTruth(tallies map[machine.NodeClass]*truthTally, runs []correlate.AttributedRun, truth map[uint64]gen.Truth) {
	for i := range runs {
		r := &runs[i]
		tr, ok := truth[r.ApID]
		if !ok {
			continue
		}
		tt := tallies[r.Class]
		if tt == nil {
			tt = &truthTally{}
			tallies[r.Class] = tt
		}
		sys := r.Outcome == correlate.OutcomeSystemFailure
		trueSys := tr.Outcome == correlate.OutcomeSystemFailure
		if sys {
			tt.attributed++
			if trueSys {
				tt.correct++
			}
		}
		if trueSys && tr.Detected {
			tt.detectable++
			if sys {
				tt.recovered++
			}
		}
	}
}

// unevenRounds cuts text into rounds at the given shares of its lines; the
// last round takes the rest.
func unevenRounds(text string, shares []float64) [][]byte {
	lines := linesOf(text)
	var out [][]byte
	lo := 0
	for _, s := range shares {
		hi := lo + int(s*float64(len(lines)))
		out = append(out, cutLines(lines, lo, hi))
		lo = hi
	}
	return append(out, cutLines(lines, lo, len(lines)))
}

// TestAnalyzeAttributionAgainstTruth holds the attribution's precision and
// detectable recall, per node class and pooled over three seeds, to floors
// measured against the generator's ground truth: once through Analyze and
// once through an Incremental fed the same bytes in uneven rounds, with the
// cut points different per archive.
func TestAnalyzeAttributionAgainstTruth(t *testing.T) {
	batch := map[machine.NodeClass]*truthTally{}
	online := map[machine.NodeClass]*truthTally{}
	for _, seed := range truthSeeds {
		cfg := testConfig(3)
		cfg.Seed = seed
		ds, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		acc, aps, sys := archiveText(t, ds)
		res, err := Analyze(archivesOf(acc, aps, sys), ds.Topology, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Runs) != len(ds.Runs) {
			t.Fatalf("seed %d: Analyze attributed %d runs, the dataset has %d", seed, len(res.Runs), len(ds.Runs))
		}
		scoreTruth(batch, res.Runs, ds.Truth)

		inc, err := NewIncremental(ds.Topology, time.UTC, Options{})
		if err != nil {
			t.Fatal(err)
		}
		accR := unevenRounds(acc, []float64{0.05, 0.6, 0.1})
		apsR := unevenRounds(aps, []float64{0.3, 0.02, 0.5})
		sysR := unevenRounds(sys, []float64{0.5, 0.2, 0.01})
		var last *Result
		for r := range accR {
			if _, err := inc.Append(Delta{Accounting: accR[r], Apsys: apsR[r], Syslog: sysR[r]}); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, r, err)
			}
			if last, err = inc.Result(); err != nil {
				t.Fatalf("seed %d round %d: %v", seed, r, err)
			}
		}
		if len(last.Runs) != len(ds.Runs) {
			t.Fatalf("seed %d: the rounds attributed %d runs, the dataset has %d", seed, len(last.Runs), len(ds.Runs))
		}
		scoreTruth(online, last.Runs, ds.Truth)
	}

	for _, path := range []struct {
		name    string
		tallies map[machine.NodeClass]*truthTally
	}{{"Analyze", batch}, {"Incremental", online}} {
		for _, class := range []machine.NodeClass{machine.ClassXE, machine.ClassXK} {
			tt := path.tallies[class]
			if tt == nil || tt.detectable == 0 {
				t.Fatalf("%s %v: no detectable system failure to score: the seeds no longer exercise the class", path.name, class)
			}
			if tt.attributed == 0 {
				t.Errorf("%s %v: no run attributed SYSTEM, %d detectable", path.name, class, tt.detectable)
				continue
			}
			prec, err := stats.Wilson(tt.correct, tt.attributed, 1.96)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := stats.Wilson(tt.recovered, tt.detectable, 1.96)
			if err != nil {
				t.Fatal(err)
			}
			line := fmt.Sprintf("%s %v: precision %d/%d = %.4f [%.4f, %.4f], detectable recall %d/%d = %.4f [%.4f, %.4f]",
				path.name, class, tt.correct, tt.attributed, prec.P, prec.Lo, prec.Hi,
				tt.recovered, tt.detectable, rec.P, rec.Lo, rec.Hi)
			t.Log(line)
			floor := truthFloors[class]
			var fails []string
			if prec.P < floor.precision {
				fails = append(fails, fmt.Sprintf("precision below its floor %.4f", floor.precision))
			}
			if rec.P < floor.recall {
				fails = append(fails, fmt.Sprintf("detectable recall below its floor %.4f", floor.recall))
			}
			if len(fails) > 0 {
				t.Errorf("%s: %s", line, strings.Join(fails, "; "))
			}
		}
	}
}
