package gen

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"logdiver/internal/alps"
	"logdiver/internal/correlate"
	"logdiver/internal/machine"
	"logdiver/internal/parse"
	"logdiver/internal/stream"
	"logdiver/internal/syslogx"
	"logdiver/internal/taxonomy"
	"logdiver/internal/wlm"
)

// testConfig returns a fast configuration on the small topology.
func testConfig(days int) Config {
	cfg := Default()
	cfg.Machine = machine.Small() // 16 cabinets, 1536 node slots
	cfg.Days = days
	cfg.Seed = 42
	cfg.Workload.JobsPerDay = 400
	cfg.Workload.XECapabilityJobsPerDay = 2
	cfg.Workload.XKCapabilityJobsPerDay = 1
	cfg.Workload.XECapabilitySizes = []int{256, 512, 900}
	cfg.Workload.XKCapabilitySizes = []int{64, 160}
	cfg.Workload.FullScaleKneeXE = 512
	cfg.Workload.FullScaleKneeXK = 160
	cfg.Workload.SmallSizeMax = 96
	// Scale per-node rates up so the small machine still produces events.
	cfg.Rates.NodeFatalPerNodeHour *= 20
	cfg.Rates.NodeBenignPerNodeHour *= 20
	cfg.Rates.GPUFatalPerNodeHour *= 150
	return cfg
}

func generateTest(t *testing.T, days int) *Dataset {
	t.Helper()
	ds, err := Generate(testConfig(days))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero days", func(c *Config) { c.Days = 0 }},
		{"zero start", func(c *Config) { c.Start = time.Time{} }},
		{"no jobs", func(c *Config) { c.Workload.JobsPerDay = 0 }},
		{"runs per job", func(c *Config) { c.Workload.MeanRunsPerJob = 0.5 }},
		{"xk fraction", func(c *Config) { c.Workload.XKJobFraction = 1.5 }},
		{"neg capability", func(c *Config) { c.Workload.XECapabilityJobsPerDay = -1 }},
		{"capability runs", func(c *Config) { c.Workload.CapabilityRunsPerJob = 0 }},
		{"small size", func(c *Config) { c.Workload.SmallSizeMax = 0 }},
		{"cap sizes", func(c *Config) { c.Workload.XECapabilitySizes = nil }},
		{"gpu detect", func(c *Config) { c.Rates.GPUDetectProb = 2 }},
		{"user prob", func(c *Config) { c.Rates.UserFailureProb = -0.1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := Default()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Errorf("Validate accepted %s", tt.name)
			}
		})
	}
	if err := Default().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestPoissonMean(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, mean := range []float64{0, 0.5, 3, 25, 80, 5000} {
		var sum float64
		const n = 3000
		for i := 0; i < n; i++ {
			sum += float64(poisson(rng, mean))
		}
		got := sum / n
		if mean == 0 {
			if got != 0 {
				t.Errorf("poisson(0) mean = %v", got)
			}
			continue
		}
		if got < mean*0.9 || got > mean*1.1 {
			t.Errorf("poisson(%v) sample mean = %v", mean, got)
		}
	}
}

func TestGenerateBasicShape(t *testing.T) {
	ds := generateTest(t, 3)
	if len(ds.Jobs) == 0 || len(ds.Runs) == 0 || len(ds.Events) == 0 {
		t.Fatalf("empty dataset: jobs=%d runs=%d events=%d", len(ds.Jobs), len(ds.Runs), len(ds.Events))
	}
	if len(ds.Truth) != len(ds.Runs) {
		t.Errorf("truth entries %d != runs %d", len(ds.Truth), len(ds.Runs))
	}
	if !sort.SliceIsSorted(ds.Runs, func(i, j int) bool {
		return ds.Runs[i].Start.Before(ds.Runs[j].Start) ||
			(ds.Runs[i].Start.Equal(ds.Runs[j].Start) && ds.Runs[i].ApID < ds.Runs[j].ApID)
	}) {
		t.Error("runs not sorted")
	}
	if !sort.SliceIsSorted(ds.Events, func(i, j int) bool { return ds.Events[i].Time.Before(ds.Events[j].Time) }) {
		t.Error("events not sorted")
	}
}

func TestGenerateRunInvariants(t *testing.T) {
	ds := generateTest(t, 3)
	for _, r := range ds.Runs {
		if !r.End.After(r.Start) {
			t.Fatalf("run %d has End %v <= Start %v", r.ApID, r.End, r.Start)
		}
		if len(r.Placement) == 0 {
			t.Fatalf("run %d has no nodes", r.ApID)
		}
		if r.Start.Before(ds.Start) {
			t.Fatalf("run %d starts before span", r.ApID)
		}
		// Placement is class-homogeneous and within the topology.
		class := ds.Topology.MustNode(r.Placement[0].Lo).Class
		for _, n := range r.Placement.Nodes() {
			node, err := ds.Topology.Node(n)
			if err != nil {
				t.Fatalf("run %d references bad node: %v", r.ApID, err)
			}
			if node.Class != class {
				t.Fatalf("run %d mixes node classes", r.ApID)
			}
		}
		if _, ok := ds.Truth[r.ApID]; !ok {
			t.Fatalf("run %d has no truth", r.ApID)
		}
		tr := ds.Truth[r.ApID]
		if tr.Outcome == correlate.OutcomeSuccess && r.Failed() {
			t.Fatalf("run %d: truth SUCCESS but exit (%d,%d)", r.ApID, r.ExitCode, r.Signal)
		}
		if tr.Outcome != correlate.OutcomeSuccess && !r.Failed() {
			t.Fatalf("run %d: truth %v but clean exit", r.ApID, tr.Outcome)
		}
	}
}

// TestGeneratePlacementExclusive verifies no node hosts two runs at once.
func TestGeneratePlacementExclusive(t *testing.T) {
	ds := generateTest(t, 2)
	busyUntil := make(map[machine.NodeID]time.Time)
	owner := make(map[machine.NodeID]uint64)
	for _, r := range ds.Runs { // sorted by start
		for _, n := range r.Placement.Nodes() {
			if until, ok := busyUntil[n]; ok && r.Start.Before(until) {
				t.Fatalf("node %d shared by runs %d and %d", n, owner[n], r.ApID)
			}
			busyUntil[n] = r.End
			owner[n] = r.ApID
		}
	}
}

// TestFIFOHoldsBehindBlockedHead pins the scheduling discipline: jobs start
// from the head of the queue only, so a head that does not fit holds every
// later job, even one that would (a capability job gets its drain).
func TestFIFOHoldsBehindBlockedHead(t *testing.T) {
	cfg := testConfig(1)
	top, err := machine.New(cfg.Machine)
	if err != nil {
		t.Fatal(err)
	}
	s := &sim{
		cfg:   cfg,
		top:   top,
		rng:   rand.New(rand.NewSource(1)),
		bg:    &faults{nodeFatal: map[machine.NodeID][]fatal{}},
		xe:    newAllocator(top.XENodes()),
		xk:    newAllocator(top.XKNodes()),
		truth: make(map[uint64]Truth),
		end:   cfg.Start.Add(24 * time.Hour),
	}
	if s.xe.alloc(s.xe.cap-400) == nil { // a 900-node job cannot fit
		t.Fatal("setup alloc failed")
	}
	job := func(size int) plannedJob {
		return plannedJob{class: machine.ClassXE, size: size, runs: []time.Duration{30 * time.Minute},
			user: "u", account: "a", queue: "normal", walltime: 2 * time.Hour, cmd: cmdProfiles[0]}
	}
	left := s.tryStartQueue([]plannedJob{job(100), job(900), job(100)}, s.xe, cfg.Start)
	if len(left) != 2 || left[0].size != 900 {
		t.Errorf("queue after start = %d jobs, want the blocked 900-node head and the job behind it", len(left))
	}
}

func TestGenerateJobInvariants(t *testing.T) {
	ds := generateTest(t, 3)
	seen := make(map[string]bool, len(ds.Jobs))
	for _, j := range ds.Jobs {
		if seen[j.ID] {
			t.Fatalf("duplicate job id %s", j.ID)
		}
		seen[j.ID] = true
		if j.EndedAt.Before(j.StartedAt) {
			t.Fatalf("job %s ends before start", j.ID)
		}
		if j.UsedWalltime > j.Walltime {
			t.Fatalf("job %s used %v > requested %v", j.ID, j.UsedWalltime, j.Walltime)
		}
		if j.Nodes <= 0 {
			t.Fatalf("job %s has %d nodes", j.ID, j.Nodes)
		}
		if j.User == "" || j.Queue == "" {
			t.Fatalf("job %s missing identity fields", j.ID)
		}
	}
	// Every run's job exists.
	for _, r := range ds.Runs {
		if !seen[r.JobID] {
			t.Fatalf("run %d references unknown job %q", r.ApID, r.JobID)
		}
	}
}

func TestGenerateOutcomeMix(t *testing.T) {
	ds := generateTest(t, 4)
	counts := map[correlate.Outcome]int{}
	detectedFalse := 0
	for _, tr := range ds.Truth {
		counts[tr.Outcome]++
		if !tr.Detected {
			detectedFalse++
		}
	}
	if counts[correlate.OutcomeSuccess] == 0 {
		t.Error("no successful runs")
	}
	if counts[correlate.OutcomeUserFailure] == 0 {
		t.Error("no user failures")
	}
	if counts[correlate.OutcomeSystemFailure] == 0 {
		t.Error("no system failures")
	}
	if counts[correlate.OutcomeWalltime] == 0 {
		t.Error("no walltime kills")
	}
	if detectedFalse == 0 {
		t.Error("no silent failures (GPU detection gap missing)")
	}
	// Successes dominate.
	if frac := float64(counts[correlate.OutcomeSuccess]) / float64(len(ds.Truth)); frac < 0.5 {
		t.Errorf("success fraction %.2f implausibly low", frac)
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a := generateTest(t, 2)
	b := generateTest(t, 2)
	if len(a.Runs) != len(b.Runs) || len(a.Events) != len(b.Events) || len(a.Jobs) != len(b.Jobs) {
		t.Fatalf("sizes differ: (%d,%d,%d) vs (%d,%d,%d)",
			len(a.Runs), len(a.Events), len(a.Jobs), len(b.Runs), len(b.Events), len(b.Jobs))
	}
	for i := range a.Runs {
		x, y := a.Runs[i], b.Runs[i]
		if x.ApID != y.ApID || !x.Start.Equal(y.Start) || !x.End.Equal(y.End) ||
			x.ExitCode != y.ExitCode || x.Signal != y.Signal || !reflect.DeepEqual(x.Placement, y.Placement) {
			t.Fatalf("run %d differs across identical seeds", i)
		}
	}
	// A different seed produces a different stream.
	cfg := testConfig(2)
	cfg.Seed = 99
	c, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Runs) == len(a.Runs) && len(c.Events) == len(a.Events) && len(c.Jobs) == len(a.Jobs) {
		same := true
		for i := range c.Runs {
			if c.Runs[i].ApID != a.Runs[i].ApID || !c.Runs[i].Start.Equal(a.Runs[i].Start) {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical datasets")
		}
	}
}

func TestGenerateEventsClassifiable(t *testing.T) {
	ds := generateTest(t, 2)
	cls := taxonomy.Default()
	for i, e := range ds.Events {
		if i%7 != 0 { // sample for speed
			continue
		}
		got, sev := cls.ClassifyBytes([]byte(e.Message))
		if got != e.Category {
			t.Fatalf("event %d message %q classifies to %v, tagged %v", i, e.Message, got, e.Category)
		}
		if sev != e.Severity {
			t.Fatalf("event %d severity mismatch: %v vs %v", i, sev, e.Severity)
		}
	}
}

// The archive round trips read each archive back through the byte parsers
// ingestion runs.

func TestWriteAccountingRoundTrip(t *testing.T) {
	ds := generateTest(t, 2)
	var buf strings.Builder
	if err := ds.WriteAccounting(&buf); err != nil {
		t.Fatal(err)
	}
	recs, stats, err := wlm.ScanBlockMode([]byte(buf.String()), time.UTC, 1, parse.Lenient)
	if err != nil {
		t.Fatal(err)
	}
	asm := wlm.NewAssembler()
	for _, r := range recs {
		if err := asm.AddScan(r); err != nil {
			t.Fatal(err)
		}
	}
	if stats.Malformed() != 0 {
		t.Errorf("accounting archive has %d malformed lines", stats.Malformed())
	}
	if asm.Len() != len(ds.Jobs) {
		t.Errorf("recovered %d jobs, want %d", asm.Len(), len(ds.Jobs))
	}
	jobs := asm.Jobs()
	byID := make(map[string]wlm.Job, len(jobs))
	for _, j := range jobs {
		byID[j.ID] = j
	}
	for _, want := range ds.Jobs {
		got, ok := byID[want.ID]
		if !ok {
			t.Fatalf("job %s lost in round trip", want.ID)
		}
		if got.Nodes != want.Nodes || got.ExitStatus != want.ExitStatus ||
			!got.StartedAt.Equal(want.StartedAt.Truncate(time.Second)) {
			t.Fatalf("job %s mismatch:\n got %+v\nwant %+v", want.ID, got, want)
		}
	}
}

func TestWriteApsysRoundTrip(t *testing.T) {
	ds := generateTest(t, 2)
	var buf strings.Builder
	if err := ds.WriteApsys(&buf); err != nil {
		t.Fatal(err)
	}
	asm := alps.NewAssembler()
	var malformed int
	stream.ForEachLine([]byte(buf.String()), func(raw []byte) {
		line, skip, perr := syslogx.CheckLineBytes(raw)
		if skip {
			return
		}
		if perr != nil {
			malformed++
			return
		}
		if string(line.Tag) != alps.Tag {
			t.Fatalf("unexpected tag %q in apsys archive", line.Tag)
		}
		m, err := alps.ParseMessageBytes(line.Msg)
		if err != nil {
			t.Fatalf("parse %q: %v", line.Msg, err)
		}
		if err := asm.AddView(line.Time, m); err != nil {
			t.Fatal(err)
		}
	})
	if malformed != 0 {
		t.Errorf("apsys archive has %d malformed lines", malformed)
	}
	runs := asm.Runs()
	if len(runs) != len(ds.Runs) {
		t.Fatalf("recovered %d runs, want %d (open=%d unmatched=%d)",
			len(runs), len(ds.Runs), asm.Open(), asm.Unmatched())
	}
	for i := range runs {
		got, want := runs[i], ds.Runs[i]
		if got.ApID != want.ApID || got.ExitCode != want.ExitCode || got.Signal != want.Signal {
			t.Fatalf("run %d mismatch: got %+v want %+v", i, got, want)
		}
		if !reflect.DeepEqual(got.Placement, want.Placement) {
			t.Fatalf("run %d placement %v != %v", i, got.Placement, want.Placement)
		}
	}
}

func TestWriteErrorLogRoundTrip(t *testing.T) {
	ds := generateTest(t, 2)
	var buf strings.Builder
	if err := ds.WriteErrorLog(&buf); err != nil {
		t.Fatal(err)
	}
	cls := taxonomy.Default()
	var parsed, unclassified, malformed int
	stream.ForEachLine([]byte(buf.String()), func(raw []byte) {
		line, skip, perr := syslogx.CheckLineBytes(raw)
		switch {
		case skip:
		case perr != nil:
			malformed++
		default:
			parsed++
			if cat, _ := cls.ClassifyBytes(line.Msg); cat == taxonomy.Unclassified {
				unclassified++
			}
		}
	})
	// Parsed count: every event, plus duplicates, minus nothing.
	if parsed < len(ds.Events) {
		t.Errorf("parsed %d lines < %d events", parsed, len(ds.Events))
	}
	if unclassified != 0 {
		t.Errorf("%d parsed lines did not classify", unclassified)
	}
	if ds.Config.Rates.MalformedPerDay > 0 && malformed == 0 {
		t.Error("no malformed lines injected")
	}
}

func TestTruthRoundTrip(t *testing.T) {
	ds := generateTest(t, 2)
	var buf strings.Builder
	if err := ds.WriteTruth(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTruth(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ds.Truth) {
		t.Fatalf("recovered %d truth records, want %d", len(got), len(ds.Truth))
	}
	for id, want := range ds.Truth {
		if got[id] != want {
			t.Fatalf("truth %d: got %+v want %+v", id, got[id], want)
		}
	}
}

func TestReadTruthErrors(t *testing.T) {
	if _, err := ReadTruth(strings.NewReader(`{"apid":1,"outcome":"BOGUS"}`)); err == nil {
		t.Error("bogus outcome accepted")
	}
	if _, err := ReadTruth(strings.NewReader(`{"apid":1,"outcome":"SYSTEM","category":"NOPE"}`)); err == nil {
		t.Error("bogus category accepted")
	}
	if _, err := ReadTruth(strings.NewReader("not json")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestScaledConfig(t *testing.T) {
	cfg := Scaled(30)
	if cfg.Days != 30 {
		t.Errorf("Days = %d", cfg.Days)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGeometricAtLeastOne(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var sum int
	const n = 20000
	for i := 0; i < n; i++ {
		v := geometricAtLeastOne(rng, 3)
		if v < 1 || v > 64 {
			t.Fatalf("geometric sample %d out of range", v)
		}
		sum += v
	}
	mean := float64(sum) / n
	if mean < 2.7 || mean > 3.3 {
		t.Errorf("geometric mean = %v, want about 3", mean)
	}
	if geometricAtLeastOne(rng, 0.5) != 1 {
		t.Error("mean <= 1 should return 1")
	}
}

func TestLognormalDurationFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		if d := lognormalDuration(rng, 0.001, 2); d < 10*time.Second {
			t.Fatalf("duration %v below floor", d)
		}
	}
}
