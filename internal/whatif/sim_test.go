package whatif

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"logdiver/internal/alps"
	"logdiver/internal/core"
	"logdiver/internal/correlate"
	"logdiver/internal/gen"
	"logdiver/internal/machine"
	"logdiver/internal/metrics"
)

// fixture is one synthesized-and-analyzed dataset shared by the suite.
type fixture struct {
	ds    *gen.Dataset
	res   *core.Result
	input Input
}

var cached *fixture

// getFixture synthesizes a small machine with boosted fault rates and a
// deliberately weak GPU detection probability, so the stream carries
// enough system interrupts and silent hybrid failures to exercise every
// policy mechanism.
func getFixture(t testing.TB) *fixture {
	t.Helper()
	if cached != nil {
		return cached
	}
	cfg := gen.Small(6)
	cfg.Seed = 7
	cfg.Rates.NodeFatalPerNodeHour *= 20
	cfg.Rates.GPUFatalPerNodeHour *= 300
	cfg.Rates.GPUDetectProb = 0.35
	ds, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Analyze(archivesFor(t, ds), ds.Topology, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mtti, err := metrics.MTTIByScale(res.Runs, metrics.GeometricBuckets(ds.Topology.NumNodes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	cached = &fixture{ds: ds, res: res, input: Input{Runs: res.Runs, MTTI: mtti}}
	return cached
}

// archivesFor serializes a dataset into the three raw archives core.Analyze
// reads, so the fixture is analyzed from bytes like any real archive.
func archivesFor(t testing.TB, ds *gen.Dataset) core.Archives {
	t.Helper()
	var acc, aps, sys bytes.Buffer
	if err := errors.Join(ds.WriteAccounting(&acc), ds.WriteApsys(&aps), ds.WriteErrorLog(&sys)); err != nil {
		t.Fatal(err)
	}
	return core.Archives{Accounting: &acc, Apsys: &aps, Syslog: &sys}
}

// mustSimulate runs one simulation or fails the test.
func mustSimulate(t testing.TB, in Input, pols []Policy, opts Options) *Report {
	t.Helper()
	rep, err := Simulate(in, pols, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// retryPolicy is the suite's workhorse recovery policy.
func retryPolicy(name string, limit int) Policy {
	p := Policy{
		Name:           name,
		Checkpoint:     CheckpointDaly,
		CheckpointCost: 7 * time.Minute,
		RestartCost:    12 * time.Minute,
		RetryLimit:     limit,
	}
	if limit > 0 {
		p.RetryBackoff = 5 * time.Minute
	}
	return p
}

// TestNoopByteIdentical is the differential gate: replaying the stream
// under a policy that changes nothing must reproduce the measured
// baseline byte for byte once rendered.
func TestNoopByteIdentical(t *testing.T) {
	f := getFixture(t)
	noop := Policy{Name: "noop"}
	if !noop.IsNoop() {
		t.Fatal("zero policy should be a no-op")
	}
	rep := mustSimulate(t, f.input, []Policy{noop}, Options{Seed: 1, Parallelism: 4})

	measured, err := json.Marshal(rep.Measured)
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []struct {
		name string
		rows []OutcomeRow
	}{
		{"baseline", rep.Baseline.Outcomes},
		{"noop policy", rep.Policies[0].Outcomes},
	} {
		b, err := json.Marshal(got.rows)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != string(measured) {
			t.Errorf("%s outcome rows differ from measured:\n got %s\nwant %s", got.name, b, measured)
		}
	}

	bl := rep.Baseline
	if bl.ConsumedNodeHours != rep.TotalNodeHours {
		t.Errorf("baseline consumed %v != measured total %v", bl.ConsumedNodeHours, rep.TotalNodeHours)
	}
	b := metrics.Outcomes(f.res.Runs)
	if bl.LostNodeHours != b.NodeHours[correlate.OutcomeSystemFailure] {
		t.Errorf("baseline lost %v != measured system node-hours %v", bl.LostNodeHours, b.NodeHours[correlate.OutcomeSystemFailure])
	}
	if bl.UsefulNodeHours != b.NodeHours[correlate.OutcomeSuccess] {
		t.Errorf("baseline useful %v != measured success node-hours %v", bl.UsefulNodeHours, b.NodeHours[correlate.OutcomeSuccess])
	}
	if bl.BankedNodeHours != 0 || bl.CheckpointOverheadNodeHours != 0 || bl.RestartOverheadNodeHours != 0 ||
		bl.RunsRecovered != 0 || bl.RunsDetected != 0 || bl.RetriesAttempted != 0 {
		t.Errorf("baseline has policy machinery engaged: %+v", bl)
	}
}

// TestMeasuredEqualsNoopReplay pins the report's measured rows and total to
// a fresh metrics.Fold of the stream, and the no-op replay's rows to them,
// byte for byte, on a hand-made stream with every outcome whose node-hours
// sum to different floats in different orders: the rows agree because each
// is one exact accumulation, not because a fold happens to add in the order
// another does. The stream is replayed forward and reversed, at one and at
// three workers.
func TestMeasuredEqualsNoopReplay(t *testing.T) {
	base := time.Date(2013, 4, 3, 0, 0, 0, 0, time.UTC)
	var runs []correlate.AttributedRun
	for k, o := range correlate.Outcomes() {
		for i := 0; i < 9; i++ {
			dur := time.Duration(1+i*i*37+k) * 1234567891 * time.Nanosecond
			runs = append(runs, correlate.AttributedRun{
				AppRun:      alps.AppRun{ApID: uint64(len(runs) + 1), Start: base, End: base.Add(dur)},
				Attribution: correlate.Attribution{Class: machine.ClassXE, Outcome: o, Nodes: int32(1 + (i*7+k)%13)},
			})
		}
	}
	// Precondition: the float sums depend on the order for some outcome.
	orderMatters := false
	for _, o := range correlate.Outcomes() {
		var fwd, rev float64
		for i := range runs {
			if runs[i].Outcome == o {
				fwd += runs[i].NodeHours()
			}
			if r := &runs[len(runs)-1-i]; r.Outcome == o {
				rev += r.NodeHours()
			}
		}
		orderMatters = orderMatters || fwd != rev
	}
	if !orderMatters {
		t.Fatal("no outcome's float node-hours depend on the summation order; the fixture proves nothing")
	}
	reversed := make([]correlate.AttributedRun, len(runs))
	for i := range runs {
		reversed[len(runs)-1-i] = runs[i]
	}
	for _, stream := range [][]correlate.AttributedRun{runs, reversed} {
		mtti, err := metrics.MTTIByScale(stream, metrics.GeometricBuckets(16), 0)
		if err != nil {
			t.Fatal(err)
		}
		agg := metrics.Fold(stream)
		fold := agg.Outcomes()
		want := mustJSONBytes(t, refMeasuredRows(fold))
		for _, par := range []int{1, 3} {
			rep := mustSimulate(t, Input{Runs: stream, MTTI: mtti}, []Policy{{Name: "noop"}}, Options{Seed: 3, Parallelism: par})
			for name, rows := range map[string][]OutcomeRow{"measured": rep.Measured, "noop": rep.Policies[0].Outcomes} {
				if got := mustJSONBytes(t, rows); !bytes.Equal(got, want) {
					t.Errorf("parallelism %d: %s rows differ from metrics.Fold:\n got %s\nwant %s", par, name, got, want)
				}
			}
			if rep.TotalNodeHours != fold.TotalNodeHours {
				t.Errorf("parallelism %d: total %v node-hours, metrics.Fold %v", par, rep.TotalNodeHours, fold.TotalNodeHours)
			}
			for _, row := range rep.Measured[:4] {
				if row.Runs != 9 {
					t.Fatalf("measured row %+v: the fixture has 9 runs of every outcome", row)
				}
			}
		}
	}
}

// referencePolicies are DefaultPolicies plus a fixed-interval design and
// full detection coverage with retries: every checkpoint kind, both
// detection extremes, recovery with and without checkpoints.
func referencePolicies() []Policy {
	return append(DefaultPolicies(),
		Policy{
			Name:               "fixed-90m",
			Checkpoint:         CheckpointFixed,
			CheckpointInterval: 90 * time.Minute,
			CheckpointCost:     4 * time.Minute,
			RestartCost:        9 * time.Minute,
			RetryLimit:         3,
			RetryBackoff:       time.Minute,
		},
		Policy{Name: "detect-all", DetectFraction: 1, RetryLimit: 1, RestartCost: 10 * time.Minute},
	)
}

// matchReference fails t unless Simulate marshals to the reference's bytes.
func matchReference(t *testing.T, in Input, pols []Policy, opts Options) {
	t.Helper()
	want, err := referenceSimulate(in, pols, opts)
	if err != nil {
		t.Fatal(err)
	}
	got := mustSimulate(t, in, pols, opts)
	if g, w := mustJSONBytes(t, got), mustJSONBytes(t, want); !bytes.Equal(g, w) {
		t.Errorf("seed %d parallelism %d: report differs from the reference:\n got %s\nwant %s", opts.Seed, opts.Parallelism, g, w)
	}
}

// TestSimulateMatchesReference holds Simulate to the replay over the runs
// themselves (reference_test.go), byte for byte once marshaled, on the
// fixture and on edge inputs, at seeds 1-4 and 1, 2 and 7 workers.
func TestSimulateMatchesReference(t *testing.T) {
	f := getFixture(t)
	runs, mtti := f.input.Runs, f.input.MTTI
	bounds := metrics.GeometricBuckets(f.ds.Topology.NumNodes())
	mttiOf := func(runs []correlate.AttributedRun) []metrics.MTTIBucket {
		m, err := metrics.MTTIByScale(runs, bounds, 0)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	var noSystem []correlate.AttributedRun
	for _, r := range runs {
		if r.Outcome != correlate.OutcomeSystemFailure {
			noSystem = append(noSystem, r)
		}
	}
	if g := newRefMTTITable(Input{Runs: noSystem}).global; !math.IsInf(g, 1) || silentCandidates(noSystem) == 0 {
		t.Fatalf("no-system stream: global MTTI %v, %d detection candidates; want +Inf and some", g, silentCandidates(noSystem))
	}
	// The runs of the first bucket take no time, so its interrupts give
	// it an MTTI of 0 and a Daly interval of 0.
	instant := slices.Clone(runs)
	for i := range instant {
		if n := instant[i].NumNodes(); n >= mtti[0].Lo && n < mtti[0].Hi {
			instant[i].End = instant[i].Start
		}
	}
	instantMTTI := mttiOf(instant)
	if b := instantMTTI[0]; b.Interrupts == 0 || b.MTTIHours != 0 {
		t.Fatalf("instant bucket %+v: want interrupts at MTTI 0", b)
	}
	// A window of the buckets leaves the smallest and largest runs outside.
	window := mtti[2:6]
	if newRefMTTITable(Input{MTTI: window}).bucketOf(1) != -1 {
		t.Fatal("one-node runs fall inside the window")
	}

	pols := referencePolicies()
	for _, c := range []struct {
		name string
		in   Input
	}{
		{"fixture", f.input},
		{"no-runs", Input{MTTI: mtti}},
		{"empty", Input{}},
		{"nil-mtti", Input{Runs: runs}},
		{"no-system-failure", Input{Runs: noSystem, MTTI: mttiOf(noSystem)}},
		{"outside-buckets", Input{Runs: runs, MTTI: window}},
		{"zero-mtti-bucket", Input{Runs: instant, MTTI: instantMTTI}},
	} {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				for _, par := range []int{1, 2, 7} {
					matchReference(t, c.in, pols, Options{Seed: seed, Parallelism: par})
				}
			}
		})
	}
}

// mustJSONBytes marshals v for byte comparisons.
func mustJSONBytes(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOutcomeLabelsCoverEveryOutcome: the per-policy accumulators index a
// correlate outcome by its value, below idxRecovered, so every outcome needs
// a row of its own there. Outcomes are enumerated up to String's fallback;
// correlate's TestOutcomeString pins that String names every member.
func TestOutcomeLabelsCoverEveryOutcome(t *testing.T) {
	for o := correlate.OutcomeSuccess; !strings.HasPrefix(o.String(), "OUTCOME("); o++ {
		if i := int(o) - 1; int(o) >= idxRecovered || outcomeLabels[i].idx != int(o) || outcomeLabels[i].label != o.String() {
			t.Errorf("outcome %v has no row of its own below idxRecovered %d", o, idxRecovered)
		}
	}
}

// TestSameSeedBitReproducible checks the determinism contract: equal
// seeds produce byte-identical reports at parallelism 1 and 4, across
// repeated invocations.
func TestSameSeedBitReproducible(t *testing.T) {
	f := getFixture(t)
	pols := DefaultPolicies()
	for _, seed := range []int64{1, 42} {
		var want []byte
		for _, par := range []int{1, 4, 4} {
			rep := mustSimulate(t, f.input, pols, Options{Seed: seed, Parallelism: par})
			b, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = b
				continue
			}
			if string(b) != string(want) {
				t.Errorf("seed %d parallelism %d: report differs from parallelism-1 run", seed, par)
			}
		}
	}
}

// TestDifferentSeedsBoundedVariance checks that seeds matter but only
// within the binomial envelope of the stochastic draws.
func TestDifferentSeedsBoundedVariance(t *testing.T) {
	f := getFixture(t)
	candidates := silentCandidates(f.res.Runs)
	if candidates < 20 {
		t.Fatalf("fixture has %d silent candidates; need >= 20 for a meaningful variance test", candidates)
	}
	const frac = 0.5
	pol := Policy{Name: "half-detect", DetectFraction: frac}
	seeds := []int64{1, 2, 3, 4, 5, 6}
	counts := make([]int, len(seeds))
	for i, seed := range seeds {
		rep := mustSimulate(t, f.input, []Policy{pol}, Options{Seed: seed})
		counts[i] = rep.Policies[0].RunsDetected
	}
	lo, hi := counts[0], counts[0]
	for _, c := range counts[1:] {
		lo, hi = min(lo, c), max(hi, c)
	}
	if lo == hi {
		t.Errorf("detected counts identical across seeds %v: %v", seeds, counts)
	}
	mean := frac * float64(candidates)
	sigma := math.Sqrt(float64(candidates) * frac * (1 - frac))
	for i, c := range counts {
		if math.Abs(float64(c)-mean) > 5*sigma+1 {
			t.Errorf("seed %d: detected %d outside %v ± %v (candidates %d)", seeds[i], c, mean, 5*sigma+1, candidates)
		}
	}
}

// TestDetectionRecoversGroundTruth scores the detection counterfactual
// against the synthesizer: among XK runs the pipeline blamed on the USER,
// the truth sidecar knows which ones were silent system failures. Feeding
// that true silent fraction back as DetectFraction must reclassify the
// true silent count, within the binomial tolerance of the mean over seeds.
func TestDetectionRecoversGroundTruth(t *testing.T) {
	f := getFixture(t)
	var candidates, trueSilent int
	for _, r := range f.res.Runs {
		if r.Class != machine.ClassXK || r.Outcome != correlate.OutcomeUserFailure {
			continue
		}
		candidates++
		if f.ds.Truth[r.ApID].Outcome == correlate.OutcomeSystemFailure {
			trueSilent++
		}
	}
	if candidates != silentCandidates(f.res.Runs) {
		t.Fatalf("candidate count mismatch: %d vs %d", candidates, silentCandidates(f.res.Runs))
	}
	if trueSilent < 5 {
		t.Fatalf("fixture has %d true silent failures among %d candidates; need >= 5", trueSilent, candidates)
	}
	q := float64(trueSilent) / float64(candidates)
	pol := Policy{Name: "truth-detect", DetectFraction: q}
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	var sum float64
	for _, seed := range seeds {
		rep := mustSimulate(t, f.input, []Policy{pol}, Options{Seed: seed})
		sum += float64(rep.Policies[0].RunsDetected)
	}
	mean := sum / float64(len(seeds))
	want := float64(trueSilent)
	sigmaOfMean := math.Sqrt(float64(candidates)*q*(1-q)) / math.Sqrt(float64(len(seeds)))
	tol := 4*sigmaOfMean + 1
	if math.Abs(mean-want) > tol {
		t.Errorf("mean detected %.2f over %d seeds; ground truth %d silent failures (tolerance %.2f, candidates %d)",
			mean, len(seeds), trueSilent, tol, candidates)
	}
}

// TestRecoveryAccounting spot-checks the economics invariants on a
// recovering policy.
func TestRecoveryAccounting(t *testing.T) {
	f := getFixture(t)
	rep := mustSimulate(t, f.input, []Policy{retryPolicy("recover", 3)}, Options{Seed: 1})
	p := rep.Policies[0]
	bl := rep.Baseline
	if p.RunsRecovered == 0 {
		t.Fatal("recovery policy recovered nothing; fixture too quiet")
	}
	var recRow, sysRow, blSys OutcomeRow
	for i, row := range p.Outcomes {
		switch row.Outcome {
		case RecoveredOutcome:
			recRow = row
		case correlate.OutcomeSystemFailure.String():
			sysRow, blSys = row, bl.Outcomes[i]
		}
	}
	if recRow.Runs != p.RunsRecovered {
		t.Errorf("RECOVERED row %d != RunsRecovered %d", recRow.Runs, p.RunsRecovered)
	}
	if sysRow.Runs+recRow.Runs != blSys.Runs {
		t.Errorf("system %d + recovered %d != baseline system %d", sysRow.Runs, recRow.Runs, blSys.Runs)
	}
	if p.LostNodeHours >= bl.LostNodeHours {
		t.Errorf("recovering policy lost %v >= baseline %v", p.LostNodeHours, bl.LostNodeHours)
	}
	if p.SavedNodeHours != bl.LostNodeHours-p.LostNodeHours {
		t.Errorf("saved %v != baseline lost - lost %v", p.SavedNodeHours, bl.LostNodeHours-p.LostNodeHours)
	}
	if p.UsefulNodeHours <= bl.UsefulNodeHours {
		t.Errorf("recovering policy useful %v <= baseline %v", p.UsefulNodeHours, bl.UsefulNodeHours)
	}
	if p.CheckpointOverheadNodeHours <= 0 || p.RestartOverheadNodeHours <= 0 {
		t.Errorf("overheads should be positive: ckpt %v restart %v", p.CheckpointOverheadNodeHours, p.RestartOverheadNodeHours)
	}
	if p.GoodputFraction <= 0 || p.GoodputFraction > 1 {
		t.Errorf("goodput %v outside (0,1]", p.GoodputFraction)
	}
	// Conservation: consumed decomposes into the named sinks plus the
	// node-hours of USER/WALLTIME runs (consumed but neither useful nor
	// system-lost nor banked).
	var otherNH float64
	for _, row := range p.Outcomes {
		if row.Outcome == correlate.OutcomeUserFailure.String() || row.Outcome == correlate.OutcomeWalltime.String() {
			otherNH += row.NodeHours
		}
	}
	sum := p.UsefulNodeHours + otherNH + p.LostNodeHours + p.BankedNodeHours +
		p.CheckpointOverheadNodeHours + p.RestartOverheadNodeHours
	if rel := math.Abs(sum-p.ConsumedNodeHours) / p.ConsumedNodeHours; rel > 1e-9 {
		t.Errorf("conservation violated: sinks sum %v vs consumed %v (rel %v)", sum, p.ConsumedNodeHours, rel)
	}
}

// TestSimulateValidation covers the error paths.
func TestSimulateValidation(t *testing.T) {
	f := getFixture(t)
	if _, err := Simulate(f.input, []Policy{{Name: "a"}, {Name: "a"}}, Options{}); err == nil {
		t.Error("duplicate names accepted")
	}
	if _, err := Simulate(f.input, []Policy{{Name: "bad", RetryLimit: -1}}, Options{}); err == nil {
		t.Error("invalid policy accepted")
	}
	many := make([]Policy, MaxPolicies+1)
	for i := range many {
		many[i] = Policy{Name: "p" + string(rune('a'+i))}
	}
	if _, err := Simulate(f.input, many, Options{}); err == nil {
		t.Error("oversized policy set accepted")
	}
	rep, err := Simulate(Input{}, nil, Options{Seed: 9})
	if err != nil {
		t.Fatalf("empty input should simulate: %v", err)
	}
	if rep.Runs != 0 || len(rep.Policies) != 0 {
		t.Errorf("empty input gave %+v", rep)
	}
}

// TestReportTables checks the W1–W3 renderings are structurally valid.
func TestReportTables(t *testing.T) {
	f := getFixture(t)
	rep := mustSimulate(t, f.input, DefaultPolicies(), Options{Seed: 1})
	tables := rep.Tables()
	if len(tables) != 3 {
		t.Fatalf("got %d tables, want 3", len(tables))
	}
	for _, tbl := range tables {
		if err := tbl.Validate(); err != nil {
			t.Errorf("table %s: %v", tbl.ID, err)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("table %s has no rows", tbl.ID)
		}
	}
}

// silentCandidates counts the detection counterfactual's target
// population: hybrid-node (XK) runs the measured attribution blamed on the
// USER. DetectFraction draws against exactly this population.
func silentCandidates(runs []correlate.AttributedRun) int {
	var n int
	for _, r := range runs {
		if r.Class == machine.ClassXK && r.Outcome == correlate.OutcomeUserFailure {
			n++
		}
	}
	return n
}
