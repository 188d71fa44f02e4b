package logdiver_test

// The benchmark harness: one benchmark per reproduced table/figure (E1-E10;
// A1 and A2 share one) plus throughput benchmarks for the pipeline stages. Each
// experiment benchmark regenerates its artifact from a shared synthesized
// dataset, so `go test -bench=.` exercises exactly the code path that
// produced EXPERIMENTS.md.

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"logdiver"
	"logdiver/internal/experiments"
	"logdiver/internal/gen"
	"logdiver/internal/raceflag"
	"logdiver/internal/stream"
	"logdiver/internal/syslogx"
)

// benchState is generated once and shared by every benchmark.
type benchState struct {
	ds  *logdiver.Dataset
	res *logdiver.Result
}

var (
	benchOnce sync.Once
	bench     benchState
)

func benchFixture(b *testing.B) *benchState {
	b.Helper()
	benchOnce.Do(func() {
		cfg := logdiver.ScaledGeneratorConfig(6)
		cfg.Machine = logdiver.SmallMachine()
		cfg.Seed = 3
		cfg.Workload.JobsPerDay = 400
		cfg.Workload.XECapabilityJobsPerDay = 3
		cfg.Workload.XKCapabilityJobsPerDay = 1.5
		cfg.Workload.XECapabilitySizes = []int{256, 512, 900}
		cfg.Workload.XKCapabilitySizes = []int{64, 160}
		cfg.Workload.FullScaleKneeXE = 512
		cfg.Workload.FullScaleKneeXK = 160
		cfg.Workload.SmallSizeMax = 96
		cfg.Rates.NodeFatalPerNodeHour *= 20
		cfg.Rates.GPUFatalPerNodeHour *= 100
		ds, err := logdiver.Generate(cfg)
		if err != nil {
			panic(err)
		}
		bench = benchState{ds: ds, res: analyzeDataset(b, ds)}
	})
	return &bench
}

// --- Experiment benchmarks: one per table/figure -------------------------

func BenchmarkE1Workload(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := experiments.E1Workload(f.res); tbl == nil {
			b.Fatal("nil table")
		}
	}
}

func BenchmarkE2Outcomes(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := experiments.E2Outcomes(f.res); tbl == nil {
			b.Fatal("nil table")
		}
	}
}

func BenchmarkE3Categories(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := experiments.E3Categories(f.res); tbl == nil {
			b.Fatal("nil table")
		}
	}
}

func BenchmarkE4ScalingXE(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E4ScalingXE(f.res); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5ScalingXK(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E5ScalingXK(f.res); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6Distributions(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E6Distributions(f.res); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7MTTI(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E7MTTI(f.res); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8Timeline(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E8Timeline(f.res); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE9Detection(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := experiments.E9Detection(f.res, f.ds.Truth); tbl == nil {
			b.Fatal("nil table")
		}
	}
}

func BenchmarkE10Coalesce(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl := experiments.E10Coalesce(f.res); tbl == nil {
			b.Fatal("nil table")
		}
	}
}

func BenchmarkAblations(b *testing.B) {
	f := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Ablations(f.res, f.ds.Topology, f.ds.Truth, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Pipeline-stage benchmarks -------------------------------------------

// BenchmarkGenerate measures synthesizer throughput (runs per op reported
// as a custom metric).
func BenchmarkGenerate(b *testing.B) {
	cfg := logdiver.ScaledGeneratorConfig(1)
	cfg.Machine = logdiver.SmallMachine()
	cfg.Workload.JobsPerDay = 300
	cfg.Workload.XECapabilitySizes = []int{256}
	cfg.Workload.XKCapabilitySizes = []int{64}
	cfg.Workload.SmallSizeMax = 96
	b.ResetTimer()
	var runs int
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		ds, err := gen.Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		runs += len(ds.Runs)
	}
	b.ReportMetric(float64(runs)/float64(b.N), "runs/op")
}

// BenchmarkAnalyzeArchives measures the text-parsing pipeline end to end.
func BenchmarkAnalyzeArchives(b *testing.B) {
	f := benchFixture(b)
	var acc, aps, sys strings.Builder
	if err := f.ds.WriteAccounting(&acc); err != nil {
		b.Fatal(err)
	}
	if err := f.ds.WriteApsys(&aps); err != nil {
		b.Fatal(err)
	}
	if err := f.ds.WriteErrorLog(&sys); err != nil {
		b.Fatal(err)
	}
	accS, apsS, sysS := acc.String(), aps.String(), sys.String()
	b.SetBytes(int64(len(accS) + len(apsS) + len(sysS)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := logdiver.Analyze(logdiver.Archives{
			Accounting: strings.NewReader(accS),
			Apsys:      strings.NewReader(apsS),
			Syslog:     strings.NewReader(sysS),
		}, f.ds.Topology, logdiver.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Runs) != len(f.ds.Runs) {
			b.Fatal("run count mismatch")
		}
	}
}

// ingestState is the raw-text fixture for the ingestion benchmarks: a
// 30-day archive set rendered once and shared by every sub-benchmark.
type ingestState struct {
	ds            *logdiver.Dataset
	acc, aps, sys string
}

var (
	ingestOnce  sync.Once
	ingestBench ingestState
)

// ingestFixture synthesizes a 30-day small-machine span with the benign
// noise rate raised so the syslog archive is parse-dominated (several MB of
// classified lines), which is what the ingestion block workers shard.
func ingestFixture(b testing.TB) *ingestState {
	b.Helper()
	ingestOnce.Do(func() {
		cfg := logdiver.ScaledGeneratorConfig(30)
		cfg.Machine = logdiver.SmallMachine()
		cfg.Seed = 5
		cfg.Workload.JobsPerDay = 400
		cfg.Workload.XECapabilitySizes = []int{256, 512, 900}
		cfg.Workload.XKCapabilitySizes = []int{64, 160}
		cfg.Workload.FullScaleKneeXE = 512
		cfg.Workload.FullScaleKneeXK = 160
		cfg.Workload.SmallSizeMax = 96
		cfg.Rates.NodeBenignPerNodeHour *= 50
		ds, err := logdiver.Generate(cfg)
		if err != nil {
			panic(err)
		}
		var acc, aps, sys strings.Builder
		if err := ds.WriteAccounting(&acc); err != nil {
			panic(err)
		}
		if err := ds.WriteApsys(&aps); err != nil {
			panic(err)
		}
		if err := ds.WriteErrorLog(&sys); err != nil {
			panic(err)
		}
		ingestBench = ingestState{ds: ds, acc: acc.String(), aps: aps.String(), sys: sys.String()}
	})
	return &ingestBench
}

// analyzeIngest runs the raw-text pipeline once over the fixture.
func analyzeIngest(t testing.TB, f *ingestState, parallelism int) {
	res, err := logdiver.Analyze(logdiver.Archives{
		Accounting: strings.NewReader(f.acc),
		Apsys:      strings.NewReader(f.aps),
		Syslog:     strings.NewReader(f.sys),
	}, f.ds.Topology, logdiver.Options{Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != len(f.ds.Runs) {
		t.Fatal("run count mismatch")
	}
}

func benchAnalyze(b *testing.B, f *ingestState, parallelism int) {
	b.SetBytes(int64(len(f.acc) + len(f.aps) + len(f.sys)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyzeIngest(b, f, parallelism)
	}
}

// BenchmarkAnalyze measures the raw-text pipeline on a 30-day archive set
// at one block worker per archive ("serial") and at GOMAXPROCS workers per
// archive ("parallel") — the same code either way. bench/ gates the wall
// time (batch_p1_mbps, batch_mbps, layer core.parallel_speedup).
func BenchmarkAnalyze(b *testing.B) {
	f := ingestFixture(b)
	b.Run("serial", func(b *testing.B) { benchAnalyze(b, f, 1) })
	b.Run("parallel", func(b *testing.B) { benchAnalyze(b, f, 0) })
}

// TestAnalyzeAllocCeiling bounds what one worker per archive allocates over
// the 30-day fixture, in count (measured 77.9k) and in bytes (measured
// 155-156 MB). The line paths are allocation-free, so the count scales
// with records retained, not with lines read, and a per-line allocation
// creeping back in blows through it many times over. It is the only gate of
// errlog.EventBatch.Append; an allocation once per 256 KB block stays under
// it by design. The bytes ceiling catches a second copy of the runs or the
// events in a round, which adds few allocations but many bytes.
func TestAnalyzeAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and analyzes the 30-day ingest fixture")
	}
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const ceiling = 81800
	const bytesCeiling = 163_500_000
	f := ingestFixture(t)
	if n := testing.AllocsPerRun(1, func() { analyzeIngest(t, f, 1) }); n > ceiling {
		t.Errorf("Analyze at one worker per archive: %.0f allocs/op, ceiling %d", n, ceiling)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	analyzeIngest(t, f, 1)
	runtime.ReadMemStats(&m1)
	if b := m1.TotalAlloc - m0.TotalAlloc; b > bytesCeiling {
		t.Errorf("Analyze at one worker per archive: %d B/op, ceiling %d", b, bytesCeiling)
	}
}

// BenchmarkSyslogParse measures raw line-parser throughput: the line split
// and per-line parser ingestion runs over the syslog archive.
func BenchmarkSyslogParse(b *testing.B) {
	f := benchFixture(b)
	var sys strings.Builder
	if err := f.ds.WriteErrorLog(&sys); err != nil {
		b.Fatal(err)
	}
	text := []byte(sys.String())
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int
		stream.ForEachLine(text, func(raw []byte) {
			if _, skip, perr := syslogx.CheckLineBytes(raw); !skip && perr == nil {
				n++
			}
		})
		if n == 0 {
			b.Fatal("no lines parsed")
		}
	}
}
