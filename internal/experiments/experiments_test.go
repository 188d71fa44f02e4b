package experiments

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"logdiver/internal/alps"
	"logdiver/internal/core"
	"logdiver/internal/correlate"
	"logdiver/internal/errlog"
	"logdiver/internal/gen"
	"logdiver/internal/machine"
	"logdiver/internal/report"
	"logdiver/internal/taxonomy"
)

// fixture generates one small dataset and analysis shared by all tests.
type fixture struct {
	ds  *gen.Dataset
	res *core.Result
}

var cached *fixture

func getFixture(t *testing.T) *fixture {
	t.Helper()
	if cached != nil {
		return cached
	}
	cfg := gen.Default()
	cfg.Machine = machine.Small()
	cfg.Days = 4
	cfg.Seed = 11
	cfg.Workload.JobsPerDay = 300
	cfg.Workload.XECapabilityJobsPerDay = 3
	cfg.Workload.XKCapabilityJobsPerDay = 1.5
	cfg.Workload.XECapabilitySizes = []int{256, 512}
	cfg.Workload.XKCapabilitySizes = []int{64, 160}
	cfg.Workload.FullScaleKneeXE = 512
	cfg.Workload.FullScaleKneeXK = 160
	cfg.Workload.SmallSizeMax = 96
	cfg.Rates.NodeFatalPerNodeHour *= 20
	cfg.Rates.NodeBenignPerNodeHour *= 20
	cfg.Rates.GPUFatalPerNodeHour *= 100
	ds, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Analyze(archivesFor(t, ds), ds.Topology, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cached = &fixture{ds: ds, res: res}
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

func TestE1Workload(t *testing.T) {
	f := getFixture(t)
	tbl := E1Workload(f.res)
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Errorf("rows = %d, want 4", len(tbl.Rows))
	}
	var b strings.Builder
	if err := tbl.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "XK (hybrid) runs") {
		t.Error("missing XK row")
	}
}

func TestE2Outcomes(t *testing.T) {
	f := getFixture(t)
	tbl := E2Outcomes(f.res)
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	// One row per outcome, enumerated up to String's fallback (correlate's
	// TestOutcomeString pins that String names every member).
	i := 0
	for o := correlate.OutcomeSuccess; !strings.HasPrefix(o.String(), "OUTCOME("); o, i = o+1, i+1 {
		if i >= len(tbl.Rows) || tbl.Rows[i][0] != o.String() {
			t.Errorf("row %d is not outcome %v", i, o)
		}
	}
	if i != len(tbl.Rows) {
		t.Errorf("rows = %d, want one per outcome (%d)", len(tbl.Rows), i)
	}
	if len(tbl.Notes) != 2 {
		t.Errorf("notes = %d, want anchor comparisons", len(tbl.Notes))
	}
	if !strings.Contains(tbl.Notes[0], "1.53%") {
		t.Errorf("anchor missing from note: %q", tbl.Notes[0])
	}
}

func TestE3Categories(t *testing.T) {
	f := getFixture(t)
	tbl := E3Categories(f.res)
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Error("no category rows")
	}
}

func TestE4E5Scaling(t *testing.T) {
	f := getFixture(t)
	e4, err := E4ScalingXE(f.res)
	if err != nil {
		t.Fatal(err)
	}
	if err := e4.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(e4.Rows) == 0 {
		t.Error("E4 has no buckets")
	}
	// The small test machine has no runs at 10k nodes: probes must degrade
	// to an explanatory note, not an error.
	found := false
	for _, n := range e4.Notes {
		if strings.Contains(n, "no runs in window") {
			found = true
		}
	}
	if !found {
		t.Error("E4 missing small-dataset probe note")
	}
	e5, err := E5ScalingXK(f.res)
	if err != nil {
		t.Fatal(err)
	}
	if len(e5.Rows) == 0 {
		t.Error("E5 has no buckets")
	}
}

func TestE6Distributions(t *testing.T) {
	f := getFixture(t)
	tbl, err := E6Distributions(f.res)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Errorf("rows = %d, want 4 populations", len(tbl.Rows))
	}
}

func TestE7MTTI(t *testing.T) {
	f := getFixture(t)
	tbl, err := E7MTTI(f.res)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Error("no MTTI buckets")
	}
}

func TestE8Timeline(t *testing.T) {
	f := getFixture(t)
	tbl, err := E8Timeline(f.res)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Error("no timeline rows")
	}
	empty := &core.Result{}
	if _, err := E8Timeline(empty); err == nil {
		t.Error("empty result accepted")
	}
}

func TestE9Detection(t *testing.T) {
	f := getFixture(t)
	tbl := E9Detection(f.res, f.ds.Truth)
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Errorf("rows = %d, want 4 populations", len(tbl.Rows))
	}
}

func TestE10Coalesce(t *testing.T) {
	f := getFixture(t)
	tbl := E10Coalesce(f.res)
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Errorf("rows = %d, want 4 stages", len(tbl.Rows))
	}
}

func TestA1WindowMonotoneAttribution(t *testing.T) {
	f := getFixture(t)
	windows := []time.Duration{time.Minute, 10 * time.Minute, 2 * time.Hour}
	tbl, err := A1Window(f.res, f.ds.Topology, f.ds.Truth, windows)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(windows) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Attribution counts must not decrease as the window grows.
	prev := -1
	for _, row := range tbl.Rows {
		n := parseCount(t, row[1])
		if n < prev {
			t.Errorf("attribution decreased as window grew: %v", tbl.Rows)
		}
		prev = n
	}
}

func TestA2BaselineOverattributes(t *testing.T) {
	f := getFixture(t)
	tbl, err := A2Baseline(f.res, f.ds.Topology, f.ds.Truth)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	joined := parseCount(t, tbl.Rows[0][1])
	baseline := parseCount(t, tbl.Rows[1][1])
	if baseline <= joined {
		t.Errorf("temporal-only baseline attributed %d <= node-time %d; expected gross overattribution",
			baseline, joined)
	}
}

func TestAllProducesEveryTable(t *testing.T) {
	f := getFixture(t)
	tables, err := All(f.res, f.ds.Topology, f.ds.Truth)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "A1", "A2", "A3"}
	if len(tables) != len(want) {
		t.Fatalf("got %d tables, want %d", len(tables), len(want))
	}
	for i, tbl := range tables {
		if tbl.ID != want[i] {
			t.Errorf("table %d = %s, want %s", i, tbl.ID, want[i])
		}
		if err := tbl.Validate(); err != nil {
			t.Errorf("table %s invalid: %v", tbl.ID, err)
		}
	}
	// Without truth, the truth-dependent tables are omitted.
	noTruth, err := All(f.res, f.ds.Topology, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(noTruth) != 17 {
		t.Errorf("without truth got %d tables, want 17", len(noTruth))
	}
}

func TestReadProbe(t *testing.T) {
	f := getFixture(t)
	probe := Probe{Name: "test", Class: machine.ClassXE, Lo: 1, Hi: 1 << 20, Anchor: 0.1}
	pr, err := ReadProbe(f.res.Runs, probe)
	if err != nil {
		t.Fatal(err)
	}
	var want int
	for _, r := range f.res.Runs {
		if r.Class == machine.ClassXE {
			want++
		}
	}
	if pr.Runs != want {
		t.Errorf("probe saw %d runs, want %d", pr.Runs, want)
	}
	if pr.P.Lo > pr.P.P || pr.P.P > pr.P.Hi {
		t.Errorf("CI broken: %+v", pr.P)
	}
}

func TestAccuracyEdgeCases(t *testing.T) {
	prec, rec, n := accuracy(nil, nil)
	if prec != 1 || rec != 1 || n != 0 {
		t.Errorf("empty accuracy = (%v,%v,%d)", prec, rec, n)
	}
}

// parseCount undoes report.Count's thousands separators.
func parseCount(t *testing.T, s string) int {
	t.Helper()
	s = strings.ReplaceAll(s, ",", "")
	var n int
	for _, c := range s {
		if c < '0' || c > '9' {
			t.Fatalf("bad count %q", s)
		}
		n = n*10 + int(c-'0')
	}
	return n
}

func TestE11Energy(t *testing.T) {
	f := getFixture(t)
	tbl := E11Energy(f.res)
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Errorf("rows = %d, want XE, XK and total", len(tbl.Rows))
	}
	// There are system failures in the fixture, so energy must be lost.
	if tbl.Rows[2][2] == "0.00" {
		t.Errorf("total energy lost is zero: %v", tbl.Rows)
	}
}

func TestE12InterruptDist(t *testing.T) {
	f := getFixture(t)
	tbl, err := E12InterruptDist(f.res)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Errorf("rows = %d, want all/XE/XK", len(tbl.Rows))
	}
	if tbl.Rows[0][2] == "n/a" {
		t.Error("machine-wide interrupt gaps missing")
	}
}

func TestE13Checkpoint(t *testing.T) {
	f := getFixture(t)
	tbl, err := E13Checkpoint(f.res)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("no checkpoint rows")
	}
	// At least one bucket must have a concrete plan.
	var concrete bool
	for _, row := range tbl.Rows {
		if row[1] != "n/a" {
			concrete = true
		}
	}
	if !concrete {
		t.Errorf("no bucket produced a plan: %v", tbl.Rows)
	}
}

func TestE14BlastRadius(t *testing.T) {
	f := getFixture(t)
	tbl := E14BlastRadius(f.res)
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("no blast-radius rows")
	}
	// The filesystem group exists (machine-scoped Lustre outages) and
	// must report at least one event.
	var sawFS bool
	for _, row := range tbl.Rows {
		if row[0] == "FILESYSTEM" {
			sawFS = true
			if parseCount(t, row[1]) == 0 {
				t.Error("filesystem group has zero events")
			}
		}
	}
	if !sawFS {
		t.Errorf("no FILESYSTEM group in %v", tbl.Rows)
	}
}

func TestE15Availability(t *testing.T) {
	f := getFixture(t)
	tbl, err := E15Availability(f.res, f.ds.Topology)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 8 {
		t.Errorf("rows = %d, want at least the 8 fixed measures", len(tbl.Rows))
	}
	// Availability must be high but below 100% (there are node deaths).
	var availRow string
	for _, row := range tbl.Rows {
		if row[0] == "machine availability" {
			availRow = row[1]
		}
	}
	if availRow == "" || availRow == "100.0000%" {
		t.Errorf("availability row = %q", availRow)
	}
	if _, err := E15Availability(&core.Result{}, f.ds.Topology); err == nil {
		t.Error("empty result accepted")
	}
}

func TestE16Survival(t *testing.T) {
	f := getFixture(t)
	tbl, err := E16Survival(f.res)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("no survival rows")
	}
	// Survival values must be valid probabilities and non-increasing
	// across horizons within a row.
	for _, row := range tbl.Rows {
		prev := 1.01
		for _, cell := range row[3:] {
			if cell == "n/a" {
				continue
			}
			var v float64
			if _, err := fmt.Sscanf(cell, "%f", &v); err != nil {
				t.Fatalf("bad survival cell %q", cell)
			}
			if v < 0 || v > 1 {
				t.Fatalf("survival %v outside [0,1]", v)
			}
			if v > prev+1e-9 {
				t.Fatalf("survival increased across horizons: %v", row)
			}
			prev = v
		}
	}
}

func TestE17Applications(t *testing.T) {
	f := getFixture(t)
	tbl := E17Applications(f.res)
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 || len(tbl.Rows) > 12 {
		t.Errorf("rows = %d, want 1..12", len(tbl.Rows))
	}
	// Rows are ordered by node-hours descending.
	prev := 1e18
	for _, row := range tbl.Rows {
		var nh float64
		if _, err := fmt.Sscanf(row[2], "%f", &nh); err != nil {
			t.Fatalf("bad node-hours cell %q", row[2])
		}
		if nh > prev {
			t.Fatalf("rows not sorted by node-hours: %v", tbl.Rows)
		}
		prev = nh
	}
}

func TestA3CoalesceSweep(t *testing.T) {
	f := getFixture(t)
	windows := []time.Duration{0, time.Minute, time.Hour}
	tbl := A3Coalesce(f.res, windows)
	if len(tbl.Rows) != len(windows) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Tuple counts must not increase as the window grows.
	prev := 1 << 62
	for _, row := range tbl.Rows {
		n := parseCount(t, row[1])
		if n > prev {
			t.Errorf("tuples increased with window: %v", tbl.Rows)
		}
		prev = n
	}
	// The zero window equals the deduplicated event count.
	if got := parseCount(t, tbl.Rows[0][1]); got != len(f.res.Events) {
		t.Errorf("no-window tuples = %d, want %d", got, len(f.res.Events))
	}
}

var _ = correlate.OutcomeSuccess // keep import for future assertions

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// TestCoalesceTablesGolden pins E10, E14 and A3 — the three tables that run
// the coalescing pipeline themselves — byte for byte. The golden was written
// when core.Result still carried the tuples and groups, so it also pins that
// computing them per table changed no number.
func TestCoalesceTablesGolden(t *testing.T) {
	f := getFixture(t)
	// Precondition: the fixture must exercise every stage E10 reports. A
	// fixture whose raw count equals its deduplicated count pins a dedup
	// stage that never removed a line.
	if raw, deduped := f.res.RawEvents, len(f.res.Events); raw <= deduped {
		t.Fatalf("precondition: %d raw classified events, %d after dedup; the fixture never exercises dedup", raw, deduped)
	}
	var buf bytes.Buffer
	for _, tbl := range []*report.Table{E10Coalesce(f.res), E14BlastRadius(f.res), A3Coalesce(f.res, nil)} {
		if err := tbl.Render(&buf); err != nil {
			t.Fatal(err)
		}
		buf.WriteByte('\n')
	}
	golden := filepath.Join("testdata", "coalesce_e10_e14_a3.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("coalescing tables differ from %s\n--- got ---\n%s--- want ---\n%s", golden, buf.Bytes(), want)
	}
}

// tieFixture is a Result built to contain the ties E14 and E17 must break
// by name: FILESYSTEM and INTERCONNECT each kill one run, HARDWARE, NODE and
// GPU none; fourteen codes burn one node-hour each, so E17's cut at twelve
// rows falls inside a tie.
func tieFixture() *core.Result {
	base := time.Date(2013, 4, 3, 0, 0, 0, 0, time.UTC)
	res := &core.Result{}
	for i, e := range []struct {
		node machine.NodeID
		cat  taxonomy.Category
		sev  taxonomy.Severity
	}{
		{errlog.SystemWide, taxonomy.FilesystemLBUG, taxonomy.SevCritical},
		{3, taxonomy.InterconnectLink, taxonomy.SevError},
		{5, taxonomy.HardwareMemoryUE, taxonomy.SevCritical},
		{6, taxonomy.NodeHeartbeat, taxonomy.SevCritical},
		{7, taxonomy.GPUMemoryDBE, taxonomy.SevCritical},
	} {
		res.Events = append(res.Events, errlog.Event{
			Time: base.Add(time.Duration(2*i+1) * time.Hour), Node: e.node,
			Category: e.cat, Severity: e.sev,
		})
	}
	res.RawEvents = len(res.Events)
	for i := 0; i < 14; i++ {
		r := correlate.AttributedRun{AppRun: alps.AppRun{
			ApID: uint64(i + 1), Cmd: fmt.Sprintf("app%02d", i),
			Placement: machine.Placement{{Lo: machine.NodeID(20 + i), Hi: machine.NodeID(20 + i)}},
			Start:     base.Add(time.Duration(i) * time.Minute),
		}, Outcome: correlate.OutcomeSuccess}
		r.End = r.Start.Add(time.Hour)
		if i < 2 { // killed by the first two events
			r.End = res.Events[i].Time.Add(time.Minute)
			r.Start = r.End.Add(-time.Hour)
			r.Outcome, r.Cause = correlate.OutcomeSystemFailure, res.Events[i].Category
		}
		res.Runs = append(res.Runs, r)
	}
	return res
}

// TestE14E17OrderDeterministic renders E14 and E17 over tieFixture 32 times:
// the rows come from maps, and Go randomises map iteration, so any sort that
// does not end on a unique key shows up as output that differs between
// renders.
func TestE14E17OrderDeterministic(t *testing.T) {
	res := tieFixture()
	render := func() string {
		var buf bytes.Buffer
		for _, tbl := range []*report.Table{E14BlastRadius(res), E17Applications(res)} {
			if err := tbl.Render(&buf); err != nil {
				t.Fatal(err)
			}
		}
		return buf.String()
	}
	first := render()
	for i := 1; i < 32; i++ {
		if got := render(); got != first {
			t.Fatalf("render %d differs from the first:\n--- first ---\n%s--- now ---\n%s", i, first, got)
		}
	}
}
