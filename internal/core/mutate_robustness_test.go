package core

// The corruption-tolerance suite: the deterministic mutation engine
// (internal/mutate) corrupts the synthesized archives under a seeded,
// budgeted configuration, and the tests pin down three properties of
// lenient ingestion — it never fails, it degrades within a budget-derived
// envelope, and its malformed-line accounting reconciles exactly with what
// the manifest says was injected — plus strict mode's fail-fast contract.
// Every property is checked differentially against the parallel path, so
// corruption cannot open a gap between the two ingestion layers.

import (
	"errors"
	"strings"
	"testing"
	"time"

	"logdiver/internal/correlate"
	"logdiver/internal/gen"
	"logdiver/internal/mutate"
	"logdiver/internal/parse"
	"logdiver/internal/syslogx"
	"logdiver/internal/wlm"
)

// archiveText serializes the test dataset into raw archive strings, the
// form the mutation engine operates on.
func archiveText(t *testing.T, ds *gen.Dataset) (acc, aps, sys string) {
	t.Helper()
	var a, p, s strings.Builder
	if err := ds.WriteAccounting(&a); err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteApsys(&p); err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteErrorLog(&s); err != nil {
		t.Fatal(err)
	}
	return a.String(), p.String(), s.String()
}

func archivesOf(acc, aps, sys string) Archives {
	return Archives{
		Accounting: strings.NewReader(acc),
		Apsys:      strings.NewReader(aps),
		Syslog:     strings.NewReader(sys),
	}
}

// Per-archive line checkers: the per-line acceptance functions ingestion
// runs, exposed as one closure shape for the reference scan and the
// manifest reconciliation below.
func accCheck(line string, no int) *parse.Error {
	_, skip, perr := wlm.CheckLineBytes([]byte(line), time.UTC)
	if skip || perr == nil {
		return nil
	}
	perr.Line = no
	return perr
}

func apsCheck(line string, no int) *parse.Error {
	_, _, _, _, perr := checkApsysLineBytes([]byte(line), no)
	return perr
}

func sysCheck(line string, no int) *parse.Error {
	_, skip, perr := syslogx.CheckLineBytes([]byte(line))
	if skip || perr == nil {
		return nil
	}
	perr.Line = no
	return perr
}

// referenceStats independently re-derives an archive's malformed-line
// accounting with a plain sequential bufio.Scanner loop over the per-line
// checker — no block machinery — to serve as the oracle the pipeline's
// ParseStats must match exactly.
func referenceStats(text, archive string, check func(string, int) *parse.Error) parse.LineStats {
	var st parse.LineStats
	// The callback never fails, and only a line past parse.AbsMaxLineBytes
	// fails the scan; the pipeline then fails too, before this is compared.
	_ = forEachLine([]byte(text), 1, func(raw []byte, no int) error {
		if perr := check(string(raw), no); perr != nil {
			st.Record(perr)
		}
		return nil
	})
	st.SetArchive(archive)
	return st
}

func splitLines(s string) []string {
	return strings.Split(strings.TrimSuffix(s, "\n"), "\n")
}

// mutateAll corrupts all three archives under one config (independent seeds
// per archive so victims differ).
func mutateAll(acc, aps, sys string, cfg mutate.Config) (macc, maps, msys string, man [3]*mutate.Manifest) {
	accB, accM := mutate.Apply([]byte(acc), cfg)
	cfg.Seed++
	apsB, apsM := mutate.Apply([]byte(aps), cfg)
	cfg.Seed++
	sysB, sysM := mutate.Apply([]byte(sys), cfg)
	return string(accB), string(apsB), string(sysB), [3]*mutate.Manifest{accM, apsM, sysM}
}

// TestMutatedArchivesLenientNeverFail sweeps corruption seeds and budgets
// over all operators: lenient Analyze must succeed on every mutated input,
// and four workers per archive must produce the exact same Result as one —
// corruption must not make the Result depend on the worker count.
func TestMutatedArchivesLenientNeverFail(t *testing.T) {
	ds := testDataset(t)
	acc, aps, sys := archiveText(t, ds)
	for _, seed := range []int64{1, 2} {
		for _, budget := range []float64{0.001, 0.01} {
			cfg := mutate.Config{Seed: seed, Budget: budget, MaxPerOp: 4}
			macc, maps, msys, _ := mutateAll(acc, aps, sys, cfg)
			serial, err := Analyze(archivesOf(macc, maps, msys), ds.Topology, Options{Parallelism: 1})
			if err != nil {
				t.Fatalf("seed %d budget %g: lenient serial Analyze failed: %v", seed, budget, err)
			}
			parallel, err := Analyze(archivesOf(macc, maps, msys), ds.Topology, Options{Parallelism: 4})
			if err != nil {
				t.Fatalf("seed %d budget %g: lenient parallel Analyze failed: %v", seed, budget, err)
			}
			assertResultsEqual(t, serial, parallel, 4)
			if serial.Parse.AccountingMalformed+serial.Parse.ApsysMalformed+serial.Parse.SyslogMalformed == 0 {
				t.Errorf("seed %d budget %g: corruption injected but nothing counted malformed", seed, budget)
			}
			// Degraded runs must stay statistically usable: skewed clocks
			// can stamp a Finishing before its Starting, and the assembler
			// must clamp those instead of emitting negative durations
			// (which would fail e.g. the Kaplan-Meier experiment).
			for _, r := range serial.Runs {
				if r.Duration() < 0 {
					t.Fatalf("seed %d budget %g: run apid=%d has negative duration %v",
						seed, budget, r.ApID, r.Duration())
				}
			}
		}
	}
}

// TestMutatedParseStatsMatchReferenceScan: the pipeline's per-archive
// malformed accounting (kinds, totals and provenance samples) on corrupted
// input must equal an independent sequential reference scan with the
// authoritative per-line checkers.
func TestMutatedParseStatsMatchReferenceScan(t *testing.T) {
	ds := testDataset(t)
	acc, aps, sys := archiveText(t, ds)
	macc, maps, msys, _ := mutateAll(acc, aps, sys, mutate.Config{Seed: 42, Budget: 0.01, MaxPerOp: 3})

	res, err := Analyze(archivesOf(macc, maps, msys), ds.Topology, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name    string
		text    string
		archive string
		check   func(string, int) *parse.Error
		got     parse.LineStats
	}{
		{"accounting", macc, ArchiveAccounting, accCheck, res.Parse.AccountingDetail},
		{"apsys", maps, ArchiveApsys, apsCheck, res.Parse.ApsysDetail},
		{"syslog", msys, ArchiveSyslog, sysCheck, res.Parse.SyslogDetail},
	}
	for _, c := range checks {
		want := referenceStats(c.text, c.archive, c.check)
		if c.got != want {
			t.Errorf("%s detail diverges from reference scan:\n got  %+v\nwant %+v", c.name, c.got, want)
		}
		// Provenance invariants: sample count saturates at MaxSamples, line
		// numbers ascend, archive names are stamped.
		n := c.got.Malformed()
		if n > parse.MaxSamples {
			n = parse.MaxSamples
		}
		if c.got.Samples.N != n {
			t.Errorf("%s: %d samples retained, want %d", c.name, c.got.Samples.N, n)
		}
		prev := 0
		for _, s := range c.got.Samples.All() {
			if s.Archive != c.archive {
				t.Errorf("%s sample has archive %q", c.name, s.Archive)
			}
			if s.Line <= prev {
				t.Errorf("%s sample lines not ascending: %d after %d", c.name, s.Line, prev)
			}
			prev = s.Line
		}
	}
}

// TestMutationManifestReconciliation: on archives with a clean baseline
// (the generated accounting and apsys archives parse without a single
// malformed line), the pipeline must report exactly the mutations the
// manifest recorded — per kind — with the first failing lines as samples.
func TestMutationManifestReconciliation(t *testing.T) {
	ds := testDataset(t)
	acc, aps, _ := archiveText(t, ds)
	cfg := mutate.Config{Seed: 99, Budget: 0.005, MaxPerOp: 3}
	accB, accMan := mutate.Apply([]byte(acc), cfg)
	apsB, apsMan := mutate.Apply([]byte(aps), cfg)

	res, err := Analyze(Archives{
		Accounting: strings.NewReader(string(accB)),
		Apsys:      strings.NewReader(string(apsB)),
	}, ds.Topology, Options{})
	if err != nil {
		t.Fatal(err)
	}

	reconcile := func(name string, mutated []byte, man *mutate.Manifest, check func(string, int) *parse.Error, got parse.LineStats) {
		t.Helper()
		lines := splitLines(string(mutated))
		var want parse.KindCounts
		var failing []int
		for _, mu := range man.Corrupting() {
			perr := check(lines[mu.Line-1], mu.Line)
			if perr == nil {
				continue // the mutation left the line parseable (skew, lucky cut)
			}
			want.Add(perr.Kind)
			failing = append(failing, mu.Line)
		}
		if got.Kinds != want {
			t.Errorf("%s: pipeline kinds %+v, manifest-derived %+v", name, got.Kinds, want)
		}
		if len(failing) > parse.MaxSamples {
			failing = failing[:parse.MaxSamples]
		}
		for i, line := range failing {
			if got.Samples.Samples[i].Line != line {
				t.Errorf("%s: sample %d at line %d, manifest says %d", name, i, got.Samples.Samples[i].Line, line)
			}
		}
	}
	reconcile("accounting", accB, accMan, accCheck, res.Parse.AccountingDetail)
	reconcile("apsys", apsB, apsMan, apsCheck, res.Parse.ApsysDetail)
}

// TestMutatedOutcomeDegradationBounded: under a small corruption budget the
// analysis must degrade proportionally, not collapse — the run count moves
// at most by the apsys lines the manifest touched (each affected line can
// create or destroy at most one run pairing, ×2 for torn neighbors), and
// the E2 outcome fractions stay within a budget-derived envelope.
func TestMutatedOutcomeDegradationBounded(t *testing.T) {
	ds := testDataset(t)
	acc, aps, sys := archiveText(t, ds)
	clean, err := Analyze(archivesOf(acc, aps, sys), ds.Topology, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const budget = 0.005
	macc, maps, msys, man := mutateAll(acc, aps, sys, mutate.Config{Seed: 17, Budget: budget, MaxPerOp: 4})
	mut, err := Analyze(archivesOf(macc, maps, msys), ds.Topology, Options{})
	if err != nil {
		t.Fatal(err)
	}

	apsAffected := man[1].LinesAffected()
	if d := len(mut.Runs) - len(clean.Runs); d > 2*apsAffected || d < -2*apsAffected {
		t.Errorf("run count moved by %d, envelope ±%d (apsys lines affected %d)", d, 2*apsAffected, apsAffected)
	}
	if len(mut.Runs) < len(clean.Runs)*9/10 {
		t.Errorf("corruption at budget %g destroyed >10%% of runs: %d -> %d", budget, len(clean.Runs), len(mut.Runs))
	}

	frac := func(res *Result) map[correlate.Outcome]float64 {
		f := make(map[correlate.Outcome]float64)
		if len(res.Runs) == 0 {
			return f
		}
		for _, r := range res.Runs {
			f[r.Outcome] += 1 / float64(len(res.Runs))
		}
		return f
	}
	cf, mf := frac(clean), frac(mut)
	eps := 10 * budget // 5% envelope for a 0.5% per-operator budget
	if eps < 0.02 {
		eps = 0.02
	}
	for _, o := range []correlate.Outcome{
		correlate.OutcomeSuccess, correlate.OutcomeUserFailure,
		correlate.OutcomeWalltime, correlate.OutcomeSystemFailure,
	} {
		if d := mf[o] - cf[o]; d > eps || d < -eps {
			t.Errorf("outcome %v fraction moved %.4f -> %.4f (|Δ| > %.3f)", o, cf[o], mf[o], eps)
		}
	}
}

// TestStrictModeFailFast: strict parsing surfaces the FIRST injected
// corruption as a typed *parse.Error carrying the archive name and line
// number — identically at one and at four workers per archive — while
// lenient mode sails through the same input.
func TestStrictModeFailFast(t *testing.T) {
	ds := testDataset(t)
	acc, aps, _ := archiveText(t, ds)
	cases := []struct {
		name    string
		archive string
		build   func(mutated string) Archives
		clean   string
	}{
		{"accounting", ArchiveAccounting, func(m string) Archives {
			return Archives{Accounting: strings.NewReader(m)}
		}, acc},
		{"apsys", ArchiveApsys, func(m string) Archives {
			return Archives{Apsys: strings.NewReader(m)}
		}, aps},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated, man := mutate.Apply([]byte(tc.clean), mutate.Config{
				Seed: 5, Budget: 0.001, MaxPerOp: 3, Ops: []mutate.Op{mutate.OpEncoding},
			})
			if len(man.Corrupting()) == 0 {
				t.Fatal("no corruption injected")
			}
			firstBad := man.Corrupting()[0].Line

			_, err := Analyze(tc.build(string(mutated)), ds.Topology, Options{ParseMode: parse.Strict, Parallelism: 1})
			if err == nil {
				t.Fatal("strict Analyze succeeded on corrupted archive")
			}
			var pe *parse.Error
			if !errors.As(err, &pe) {
				t.Fatalf("strict error %T is not a *parse.Error: %v", err, err)
			}
			if pe.Archive != tc.archive {
				t.Errorf("error names archive %q, want %q", pe.Archive, tc.archive)
			}
			if pe.Line != firstBad {
				t.Errorf("error at line %d, first injected corruption at %d", pe.Line, firstBad)
			}
			if pe.Kind != parse.KindEncoding {
				t.Errorf("error kind %v, want KindEncoding", pe.Kind)
			}

			_, perr := Analyze(tc.build(string(mutated)), ds.Topology, Options{ParseMode: parse.Strict, Parallelism: 4})
			if perr == nil {
				t.Fatal("strict parallel Analyze succeeded on corrupted archive")
			}
			if perr.Error() != err.Error() {
				t.Errorf("strict error differs between worker counts:\n1 worker  %v\n4 workers %v", err, perr)
			}

			if _, err := Analyze(tc.build(string(mutated)), ds.Topology, Options{}); err != nil {
				t.Errorf("lenient Analyze failed on the same input: %v", err)
			}
		})
	}
}

// TestStrictModeCleanArchives: strict mode must accept archives with no
// malformed lines (the generated accounting and apsys archives), matching
// the lenient result exactly.
func TestStrictModeCleanArchives(t *testing.T) {
	ds := testDataset(t)
	acc, aps, _ := archiveText(t, ds)
	a := Archives{Accounting: strings.NewReader(acc), Apsys: strings.NewReader(aps)}
	strict, err := Analyze(a, ds.Topology, Options{ParseMode: parse.Strict})
	if err != nil {
		t.Fatalf("strict Analyze failed on clean archives: %v", err)
	}
	lenient, err := Analyze(Archives{
		Accounting: strings.NewReader(acc), Apsys: strings.NewReader(aps),
	}, ds.Topology, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if strict.Parse != lenient.Parse {
		t.Errorf("strict vs lenient ParseStats differ on clean input:\n%+v\n%+v", strict.Parse, lenient.Parse)
	}
	if len(strict.Runs) != len(lenient.Runs) {
		t.Errorf("strict run count %d, lenient %d", len(strict.Runs), len(lenient.Runs))
	}
}
