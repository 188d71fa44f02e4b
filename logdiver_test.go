package logdiver_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"logdiver"
	"logdiver/internal/metrics"
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

// detectionCoverage tallies attribution against the dataset's ground truth
// over the runs of class (0: every class) placed on at least minNodes nodes.
func detectionCoverage(ds *logdiver.Dataset, res *logdiver.Result, class logdiver.NodeClass, minNodes int) metrics.Coverage {
	var c metrics.Coverage
	for i := range res.Runs {
		r := &res.Runs[i]
		if (class == 0 || r.Class == class) && r.NumNodes() >= minNodes {
			c.Add(ds.Truth[r.ApID].Outcome == logdiver.OutcomeSystemFailure, r.Outcome == logdiver.OutcomeSystemFailure)
		}
	}
	return c
}

func TestPublicAPIEndToEnd(t *testing.T) {
	ds := smallDataset(t, 3, 5)
	res := analyzeDataset(t, ds)
	if len(res.Runs) != len(ds.Runs) {
		t.Fatalf("runs: %d vs %d", len(res.Runs), len(ds.Runs))
	}
	b := res.Agg.Outcomes()
	if b.Total == 0 || b.SystemFailureFraction() <= 0 {
		t.Errorf("breakdown: %+v", b)
	}
	buckets, err := res.Agg.Scaling(logdiver.GeometricBuckets(512), logdiver.ClassXE)
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
	cov := detectionCoverage(ds, res, 0, 0)
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
	if res.NumJobs != len(ds.Jobs) {
		t.Errorf("jobs: %d vs %d", res.NumJobs, len(ds.Jobs))
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
