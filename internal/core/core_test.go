package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"logdiver/internal/coalesce"
	"logdiver/internal/correlate"
	"logdiver/internal/errlog"
	"logdiver/internal/gen"
	"logdiver/internal/machine"
	"logdiver/internal/taxonomy"
)

var testDatasetCache *gen.Dataset

// testDataset generates (once) a small synthetic archive for pipeline tests.
func testDataset(t *testing.T) *gen.Dataset {
	t.Helper()
	if testDatasetCache != nil {
		return testDatasetCache
	}
	ds, err := gen.Generate(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	testDatasetCache = ds
	return ds
}

// testConfig is the test dataset's generator configuration over days days.
func testConfig(days int) gen.Config {
	cfg := gen.Default()
	cfg.Machine = machine.Small()
	cfg.Days = days
	cfg.Seed = 7
	cfg.Workload.JobsPerDay = 300
	cfg.Workload.XECapabilityJobsPerDay = 2
	cfg.Workload.XKCapabilityJobsPerDay = 1
	cfg.Workload.XECapabilitySizes = []int{256, 512}
	cfg.Workload.XKCapabilitySizes = []int{64, 160}
	cfg.Workload.FullScaleKneeXE = 512
	cfg.Workload.FullScaleKneeXK = 160
	cfg.Workload.SmallSizeMax = 96
	cfg.Rates.NodeFatalPerNodeHour *= 20
	cfg.Rates.NodeBenignPerNodeHour *= 20
	cfg.Rates.GPUFatalPerNodeHour *= 100
	return cfg
}

// archivesFor serializes a dataset into in-memory archives.
func archivesFor(t *testing.T, ds *gen.Dataset) Archives {
	t.Helper()
	var acc, aps, sys strings.Builder
	if err := ds.WriteAccounting(&acc); err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteApsys(&aps); err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteErrorLog(&sys); err != nil {
		t.Fatal(err)
	}
	return Archives{
		Accounting: strings.NewReader(acc.String()),
		Apsys:      strings.NewReader(aps.String()),
		Syslog:     strings.NewReader(sys.String()),
		Location:   time.UTC,
	}
}

func TestAnalyzeEndToEnd(t *testing.T) {
	ds := testDataset(t)
	res, err := Analyze(archivesFor(t, ds), ds.Topology, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumJobs != len(ds.Jobs) {
		t.Errorf("jobs: got %d, want %d", res.NumJobs, len(ds.Jobs))
	}
	if len(res.Runs) != len(ds.Runs) {
		t.Errorf("runs: got %d, want %d", len(res.Runs), len(ds.Runs))
	}
	if res.Parse.AccountingMalformed != 0 {
		t.Errorf("accounting malformed: %d", res.Parse.AccountingMalformed)
	}
	if res.Parse.ApsysMalformed != 0 {
		t.Errorf("apsys malformed: %d", res.Parse.ApsysMalformed)
	}
	if res.Parse.SyslogMalformed == 0 {
		t.Error("expected injected malformed syslog lines to be counted")
	}
	if res.Parse.Unclassified != 0 {
		t.Errorf("unclassified: %d", res.Parse.Unclassified)
	}
	// Dedup must remove the injected duplicates.
	if len(res.Events) != len(ds.Events) {
		t.Errorf("deduped events: got %d, want %d", len(res.Events), len(ds.Events))
	}
	if res.RawEvents <= len(res.Events) {
		t.Error("raw events should exceed deduped (duplicates injected)")
	}
	if res.Start.IsZero() || !res.End.After(res.Start) {
		t.Errorf("span [%v,%v] broken", res.Start, res.End)
	}

	// Outcomes must cover all four classes on this workload.
	counts := map[correlate.Outcome]int{}
	for _, r := range res.Runs {
		counts[r.Outcome]++
	}
	for _, o := range []correlate.Outcome{
		correlate.OutcomeSuccess, correlate.OutcomeUserFailure,
		correlate.OutcomeWalltime, correlate.OutcomeSystemFailure,
	} {
		if counts[o] == 0 {
			t.Errorf("no runs with outcome %v", o)
		}
	}
}

// TestAnalyzeMatchesInMemoryPath verifies the parse path and the in-memory
// path agree run for run: serialization loses nothing that matters.
func TestAnalyzeMatchesInMemoryPath(t *testing.T) {
	ds := testDataset(t)
	fromText, err := Analyze(archivesFor(t, ds), ds.Topology, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fromMem, err := AnalyzeParsed(ds.Jobs, ds.Runs, ds.Events, ds.Topology, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fromText.Runs) != len(fromMem.Runs) {
		t.Fatalf("run counts differ: %d vs %d", len(fromText.Runs), len(fromMem.Runs))
	}
	for i := range fromText.Runs {
		a, b := fromText.Runs[i], fromMem.Runs[i]
		if a.ApID != b.ApID {
			t.Fatalf("run %d apid %d vs %d", i, a.ApID, b.ApID)
		}
		if a.Outcome != b.Outcome {
			t.Fatalf("apid %d outcome %v (text) vs %v (mem)", a.ApID, a.Outcome, b.Outcome)
		}
		if a.Outcome == correlate.OutcomeSystemFailure && a.Cause != b.Cause {
			t.Fatalf("apid %d cause %v vs %v", a.ApID, a.Cause, b.Cause)
		}
	}
}

func TestAnalyzeNilTopology(t *testing.T) {
	if _, err := Analyze(Archives{}, nil, Options{}); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := AnalyzeParsed(nil, nil, nil, nil, Options{}); err == nil {
		t.Error("nil topology accepted (parsed path)")
	}
}

func TestAnalyzeEmptyArchives(t *testing.T) {
	top, err := machine.New(machine.Small())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(Archives{}, top, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 0 || res.NumJobs != 0 || len(res.Events) != 0 {
		t.Errorf("empty archives produced data: %+v", res.Parse)
	}
}

func TestAnalyzeGarbageArchives(t *testing.T) {
	top, err := machine.New(machine.Small())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(Archives{
		Accounting: strings.NewReader("complete\ngarbage\n"),
		Apsys:      strings.NewReader("more garbage\n"),
		Syslog:     strings.NewReader("even more\n"),
	}, top, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Parse.AccountingMalformed != 2 {
		t.Errorf("accounting malformed = %d, want 2", res.Parse.AccountingMalformed)
	}
	if len(res.Runs) != 0 {
		t.Error("garbage produced runs")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Classifier == nil {
		t.Error("no default classifier")
	}
	if o.Parallelism <= 0 {
		t.Errorf("default parallelism = %d, want GOMAXPROCS", o.Parallelism)
	}
	// Explicit options survive.
	cls := taxonomy.NewClassifier(nil)
	if custom := (Options{Classifier: cls}).withDefaults(); custom.Classifier != cls {
		t.Error("explicit classifier overridden")
	}
}

// TestResultCarriesNoCoalescingProducts walks every type reachable from
// Result: tuples and groups belong to the tables that read them
// (coalesce.Pipeline over Result.Events), never to the pipeline output every
// Analyze and every Incremental.Result round builds.
func TestResultCarriesNoCoalescingProducts(t *testing.T) {
	banned := map[reflect.Type]bool{
		reflect.TypeOf(coalesce.Tuple{}): true,
		reflect.TypeOf(coalesce.Group{}): true,
		reflect.TypeOf(coalesce.Stats{}): true,
	}
	seen := map[reflect.Type]bool{}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		if banned[ty] {
			t.Errorf("%s holds a %s", path, ty)
		}
		if seen[ty] {
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Map:
			walk(path+"[key]", ty.Key())
			fallthrough
		case reflect.Slice, reflect.Array, reflect.Pointer, reflect.Chan:
			walk(path+"[]", ty.Elem())
		}
	}
	walk("Result", reflect.TypeOf(Result{}))
	if !seen[reflect.TypeOf(errlog.Event{})] || !seen[reflect.TypeOf(correlate.AttributedRun{})] {
		t.Fatal("walk never reached the events and runs: it checks nothing")
	}
}
