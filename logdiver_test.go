package logdiver_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"logdiver"
)

// smallDataset synthesizes a fast dataset on the small machine.
func smallDataset(t testing.TB, days int, seed int64) *logdiver.Dataset {
	t.Helper()
	cfg := logdiver.ScaledGeneratorConfig(days)
	cfg.Machine = logdiver.SmallMachine()
	cfg.Seed = seed
	cfg.Workload.JobsPerDay = 300
	cfg.Workload.XECapabilityJobsPerDay = 2
	cfg.Workload.XKCapabilityJobsPerDay = 1
	cfg.Workload.XECapabilitySizes = []int{256, 512}
	cfg.Workload.XKCapabilitySizes = []int{64, 160}
	cfg.Workload.FullScaleKneeXE = 512
	cfg.Workload.FullScaleKneeXK = 160
	cfg.Workload.SmallSizeMax = 96
	cfg.Rates.NodeFatalPerNodeHour *= 20
	cfg.Rates.GPUFatalPerNodeHour *= 100
	ds, err := logdiver.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// analyzeDataset serializes a dataset into the three raw archives and runs
// the pipeline over their bytes: every test of the pipeline is fed bytes, as
// the paper's LogDiver was.
func analyzeDataset(t testing.TB, ds *logdiver.Dataset) *logdiver.Result {
	t.Helper()
	var acc, aps, sys bytes.Buffer
	if err := errors.Join(ds.WriteAccounting(&acc), ds.WriteApsys(&aps), ds.WriteErrorLog(&sys)); err != nil {
		t.Fatal(err)
	}
	res, err := logdiver.Analyze(logdiver.Archives{Accounting: &acc, Apsys: &aps, Syslog: &sys}, ds.Topology, logdiver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// trueSystemFailures projects a dataset's ground truth onto the boolean
// form DetectionCoverage consumes.
func trueSystemFailures(ds *logdiver.Dataset) map[uint64]bool {
	out := make(map[uint64]bool, len(ds.Truth))
	for id, tr := range ds.Truth {
		out[id] = tr.Outcome == logdiver.OutcomeSystemFailure
	}
	return out
}

func TestPublicAPIEndToEnd(t *testing.T) {
	ds := smallDataset(t, 3, 5)
	res := analyzeDataset(t, ds)
	if len(res.Runs) != len(ds.Runs) {
		t.Fatalf("runs: %d vs %d", len(res.Runs), len(ds.Runs))
	}
	b := logdiver.Outcomes(res.Runs)
	if b.Total == 0 || b.SystemFailureFraction() <= 0 {
		t.Errorf("breakdown: %+v", b)
	}
	buckets, err := logdiver.FailureProbabilityByScale(res.Runs, logdiver.GeometricBuckets(512), logdiver.ClassXE)
	if err != nil {
		t.Fatal(err)
	}
	var populated int
	for _, bk := range buckets {
		populated += bk.Runs
	}
	if populated == 0 {
		t.Error("no runs in scale buckets")
	}
	cov := logdiver.DetectionCoverage(res.Runs, trueSystemFailures(ds), 0)
	if cov.TrueSystem == 0 {
		t.Error("no true system failures")
	}
	if cov.Rate() <= 0 || cov.Rate() > 1 {
		t.Errorf("coverage rate %v", cov.Rate())
	}
}

func TestPublicAPITextArchives(t *testing.T) {
	ds := smallDataset(t, 2, 6)
	res := analyzeDataset(t, ds)
	if len(res.Runs) != len(ds.Runs) {
		t.Errorf("runs: %d vs %d", len(res.Runs), len(ds.Runs))
	}
	if len(res.Jobs) != len(ds.Jobs) {
		t.Errorf("jobs: %d vs %d", len(res.Jobs), len(ds.Jobs))
	}
}

func TestPublicExperiments(t *testing.T) {
	ds := smallDataset(t, 3, 5)
	res := analyzeDataset(t, ds)
	tables, err := logdiver.Experiments(res, ds.Topology, ds.Truth)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 20 {
		t.Fatalf("got %d tables, want 20", len(tables))
	}
	var b strings.Builder
	for _, tbl := range tables {
		if err := tbl.Render(&b); err != nil {
			t.Fatalf("render %s: %v", tbl.ID, err)
		}
	}
	if !strings.Contains(b.String(), "1.53%") {
		t.Error("anchor comparison missing from rendered output")
	}
}

func TestAnchorsExported(t *testing.T) {
	if logdiver.AnchorSystemFraction != 0.0153 {
		t.Errorf("AnchorSystemFraction = %v", logdiver.AnchorSystemFraction)
	}
	if logdiver.AnchorXEProb22k/logdiver.AnchorXEProb10k < 20 {
		t.Error("XE anchors do not encode the 20x amplification")
	}
}

func ExampleOutcomes() {
	cfg := logdiver.ScaledGeneratorConfig(1)
	cfg.Machine = logdiver.SmallMachine()
	cfg.Workload.JobsPerDay = 50
	cfg.Workload.XECapabilitySizes = []int{256}
	cfg.Workload.XKCapabilitySizes = []int{64}
	cfg.Workload.SmallSizeMax = 64
	ds, err := logdiver.Generate(cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	var acc, aps, sys bytes.Buffer
	if err := errors.Join(ds.WriteAccounting(&acc), ds.WriteApsys(&aps), ds.WriteErrorLog(&sys)); err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := logdiver.Analyze(logdiver.Archives{Accounting: &acc, Apsys: &aps, Syslog: &sys}, ds.Topology, logdiver.Options{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	b := logdiver.Outcomes(res.Runs)
	fmt.Println(b.Total > 0)
	// Output: true
}
