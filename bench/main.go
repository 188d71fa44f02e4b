// Command bench is the repository's benchmark: one workload per process,
// replayed as identical fixed-work cycles from an identical base state,
// reporting the quietest cycle of each end-to-end metric (tracing off) or
// the per-layer metrics and a span trace (tracing on). README.md in this
// directory explains the protocol and why it is built this way.
//
//	bash bench/run.sh --workload wide_sparse --seed 1 --seconds 22 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd is the bounded metric set; BENCHMARK.json repeats it and
// bench_test.go keeps the two in step. The bound is what two sets of runs
// taken at different times may differ by; README.md says why that is 0.25
// here and why paired runs are held to 0.10 (aa.sh).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"batch_mbps", "MB/s", "higher", 0.25},
	{"batch_p1_mbps", "MB/s", "higher", 0.25},
	{"warm_restart_s", "s", "lower", 0.25},
	{"online_mbps", "MB/s", "higher", 0.25},
	{"epoch_advance_ms", "ms", "lower", 0.25},
	{"query_rps", "req/s", "higher", 0.25},
	{"whatif_miss_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// A run's size is fixed, not timed: the number of draws behind "the quietest
// cycle" must not depend on how fast the code under test is.
const (
	timedCycles = 7 // every end-to-end metric but setup_s is the quietest of these
	setUps      = 5 // setup_s is their median
)

type options struct {
	workload string
	seed     int64
	seconds  float64 // the run length the loads are sized for; see untraced
	trace    bool
	scale    float64 // 1 = the sized workload; the smoke test runs 1/20
	setups   int
	cycles   int
	workDir  string // scratch directory, removed on entry and on exit
	outDir   string // where the trace file goes
	stdout   io.Writer
	stderr   io.Writer
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// stableHeap re-executes the binary with GODEBUG=madvdontneed=0, so freed
// heap is returned to the kernel with MADV_FREE, not MADV_DONTNEED. Every
// cycle grows and shrinks the heap by hundreds of megabytes; with the
// default the process re-faulted 70-130 thousand pages per cycle, and in a
// VM that cost 0.1-0.4 s of system time that moved from cycle to cycle.
// With MADV_FREE the pages stay mapped while memory is plentiful, the faults
// are gone, and the cycle walls of one run agree within a few per cent.
func stableHeap() error {
	const setting = "madvdontneed=0"
	env := os.Getenv("GODEBUG")
	if strings.Contains(env, "madvdontneed=") {
		return nil
	}
	if env != "" {
		env += ","
	}
	if err := os.Setenv("GODEBUG", env+setting); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(exe, os.Args, os.Environ())
}

func main() {
	if err := stableHeap(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	opt := options{
		scale: 1, setups: setUps, cycles: timedCycles,
		outDir: filepath.Join("bench", "out"),
		stdout: os.Stdout, stderr: os.Stderr,
	}
	trace := 0
	flag.StringVar(&opt.workload, "workload", "", "workload to run: wide_sparse, small_noisy or fleet_churn")
	flag.Int64Var(&opt.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&opt.seconds, "seconds", 22, "run length the fixed-work cycles are sized for; an overrun is reported, never cut short")
	flag.IntVar(&trace, "trace", 0, "1 = traced pass: per-layer metrics and bench/out/trace-<workload>.jsonl")
	flag.Parse()
	opt.trace = trace != 0
	opt.workDir = filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d", opt.workload, os.Getpid()))
	res, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(opt.stdout, string(line))
}

// run executes one workload and returns its result line.
func run(opt options) (*result, error) {
	spec, ok := findWorkload(opt.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	// The harness runs from the repository root (run.sh starts it there):
	// fail before doing any work when started anywhere else.
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err != nil {
		return nil, fmt.Errorf("not at the repository root: %w", err)
	}
	defer os.RemoveAll(opt.workDir)
	fmt.Fprintf(opt.stdout, "# workload=%s seed=%d scale=%g trace=%v nproc=%d GOMAXPROCS=%d %s\n",
		spec.name, opt.seed, opt.scale, opt.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	tr := &tracer{t0: time.Now(), workload: spec.name}
	if opt.trace {
		opt.setups = 1 // setup_s is an untraced metric
	}
	var b *bench
	var setupS []float64
	for len(setupS) < opt.setups {
		b = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if b, err = setUp(spec, opt.seed, opt.scale, opt.workDir, tr, opt.stderr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	if _, err := b.runCycle(false); err != nil { // warm-up: fills caches, fixes the query script
		return nil, fmt.Errorf("warm-up cycle: %w", err)
	}

	res := &result{Metrics: map[string]metricValue{}}
	var err error
	if opt.trace {
		err = traced(b, opt, res)
	} else {
		err = untraced(b, opt, setupS, res)
	}
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	res.Correct = b.failed == 0
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	return res, nil
}

// untraced replays the timed cycles and reports, per end-to-end metric, the
// quietest one. --seconds does not size the run: the loads in workload.go
// are sized so that the cycles take about that long, and a run that takes
// much longer says so.
func untraced(b *bench, opt options, setupS []float64, res *result) error {
	var cycles []*cycleResult
	start := time.Now()
	for len(cycles) < opt.cycles {
		c, err := b.runCycle(false)
		if err != nil {
			return fmt.Errorf("cycle %d: %w", len(cycles)+1, err)
		}
		cycles = append(cycles, c)
	}
	if wall := time.Since(start).Seconds(); opt.seconds > 0 && wall > 1.5*opt.seconds {
		fmt.Fprintf(opt.stderr, "bench: the %d timed cycles took %.1f s, the run length is %g s: resize the workload\n", opt.cycles, wall, opt.seconds)
	}
	peakKB, err := procStatusKB("VmHWM")
	if err != nil {
		return err
	}

	per := map[string][]float64{}
	for _, c := range cycles {
		per["batch_mbps"] = append(per["batch_mbps"], mbps(b.gen.bytes, c.batchPN))
		per["batch_p1_mbps"] = append(per["batch_p1_mbps"], mbps(b.gen.bytes, c.batchP1))
		per["warm_restart_s"] = append(per["warm_restart_s"], c.restart.Seconds())
		per["online_mbps"] = append(per["online_mbps"], mbps(c.onlineBytes, c.onlineWall))
		per["epoch_advance_ms"] = append(per["epoch_advance_ms"], median(durationsMS(c.smallRounds)))
		per["query_rps"] = append(per["query_rps"], float64(len(c.queryLat))/c.queryWall.Seconds())
		per["whatif_miss_ms"] = append(per["whatif_miss_ms"], median(durationsMS(c.whatif)))
		per["canary_ms"] = append(per["canary_ms"], ms(c.canary))
		per["cycle_s"] = append(per["cycle_s"], c.wall.Seconds())
	}
	fmt.Fprintf(opt.stdout, "# %d timed cycles after %d set-ups and a warm-up cycle\n", len(cycles), len(setupS))
	fmt.Fprintf(opt.stdout, "# %-18s %12s %12s %9s  %s\n", "metric", "reported", "median", "iqr/med", "unit")
	for _, d := range endToEnd {
		var v float64
		vals := per[d.name]
		switch d.name {
		case "setup_s":
			vals = setupS
			v = median(setupS)
		case "peak_rss_mb":
			v = peakKB * 1024 / 1e6
			vals = []float64{v}
		default:
			if d.better == "lower" {
				v = slices.Min(vals)
			} else {
				v = slices.Max(vals)
			}
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
		fmt.Fprintf(opt.stdout, "# %-18s %12.4f %12.4f %8.1f%%  %s\n", d.name, v, median(vals), 100*(quantile(vals, 0.75)-quantile(vals, 0.25))/median(vals), d.unit)
	}
	fmt.Fprintf(opt.stdout, "# %-18s %12.4f %12.4f %9s  ms (64 MB sha256; the machine, not the repository)\n", "canary_ms", slices.Min(per["canary_ms"]), median(per["canary_ms"]), "")
	c := cycles[len(cycles)/2]
	fmt.Fprintf(opt.stdout, "# cycle wall %.2f s median (batch %.2f+%.2f restart %.2f online %.2f query %.2f whatif %.2f); %.1f MB archive, %.1f MB appended online\n",
		median(per["cycle_s"]), c.batchP1.Seconds(), c.batchPN.Seconds(), c.restart.Seconds(), c.onlineWall.Seconds(), c.queryWall.Seconds(),
		sum(c.whatif).Seconds(), mb(b.gen.bytes), mb(c.onlineBytes))
	fmt.Fprintf(opt.stdout, "# last set-up: generate %.2f s, emit %.2f s, cold sync %.2f s\n", b.gen.generate.Seconds(), b.gen.emit.Seconds(), b.coldSync.Seconds())
	fmt.Fprintf(opt.stdout, "# ops_attempted=%d ops_failed=%d\n", b.attempted, b.failed)
	return nil
}

// traced alternates untraced and traced cycles (their wall ratio is the
// tracing overhead), measures every layer in isolation, runs the loaded
// online diagnostic and writes the trace.
func traced(b *bench, opt options, res *result) error {
	const pairs = 2
	var plain, withSpans []*cycleResult
	for i := 0; i < pairs; i++ {
		b.tr.on = false
		c, err := b.runCycle(false)
		if err != nil {
			return err
		}
		plain = append(plain, c)
		b.tr.on, b.tr.cycle = true, i+1
		if c, err = b.runCycle(false); err != nil {
			return err
		}
		withSpans = append(withSpans, c)
	}
	b.tr.cycle = 0
	m, err := b.measureLayers(opt.scale)
	if err != nil {
		return err
	}
	b.tr.on = false
	loaded, err := b.runCycle(true)
	if err != nil {
		return err
	}

	perCycle := func(span string) float64 { return ms(b.tr.total(span)) / pairs }
	m["core.analyze_p1_ms"] = perCycle("core.Analyze.p1")
	m["core.analyze_pn_ms"] = perCycle("core.Analyze.pn")
	m["core.parallel_speedup"] = m["core.analyze_p1_ms"] / m["core.analyze_pn_ms"]
	m["fleet.new_manager_warm_ms"] = perCycle("fleet.NewManager")
	m["fleet.sync_round_ms"] = perCycle("fleet.SyncRound.small") / float64(b.plan.smallRounds)
	m["fleet.cold_sync_s"] = b.coldSync.Seconds()
	m["gen.generate_s"] = b.gen.generate.Seconds()
	m["gen.emit_mbps"] = mbps(b.gen.bytes, b.gen.emit)
	var lat, canaries []float64
	var wallPlain, wallSpans time.Duration
	for i, c := range withSpans {
		for _, l := range c.queryLat {
			lat = append(lat, us(l))
		}
		canaries = append(canaries, ms(c.canary), ms(plain[i].canary))
		wallPlain += plain[i].wall
		wallSpans += c.wall
		m["serve.cache_renders"] += c.cacheRenders / pairs
		m["serve.shed"] += c.shed / pairs
		m["fleet.persist_all_ms"] += ms(c.persistAll) / pairs
		for _, ph := range phaseNames {
			g := c.gc[ph]
			m["go.gc_pause_ms."+ph] += ms(g.pause) / pairs
			m["go.gc_cycles."+ph] += float64(g.cycles) / pairs
			m["go.heap_live_mb."+ph] += g.heapMB / pairs
		}
	}
	m["serve.query_p50_us"] = quantile(lat, 0.50)
	m["serve.query_p99_us"] = quantile(lat, 0.99)
	m["serve.query_under_ingest_rps"] = float64(loaded.loadRequests) / loaded.loadWall.Seconds()
	m["fleet.sync_round_loaded_ms"] = median(durationsMS(loaded.smallRounds))
	m["canary_best_ms"] = slices.Min(canaries)
	m["canary_median_ms"] = median(canaries)
	m["trace.overhead_ratio"] = wallSpans.Seconds() / wallPlain.Seconds()

	path := filepath.Join(opt.outDir, "trace-"+b.spec.name+".jsonl")
	if err := b.tr.write(path); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	fmt.Fprintf(opt.stdout, "# %d spans written to %s\n", len(b.tr.spans), path)
	fmt.Fprintf(opt.stdout, "# self time by layer (traced cycles + isolated layer calls), ms:\n")
	self := b.tr.selfTimes()
	for _, p := range []string{"wlm.", "alps.", "syslogx.", "taxonomy.", "errlog.", "coalesce.", "interval.", "correlate.", "core.", "metrics.", "store.", "persist.", "fleet.", "serve.", "whatif."} {
		fmt.Fprintf(opt.stdout, "#   %-10s %10.2f\n", p[:len(p)-1], ms(b.tr.selfByPrefix(self, p)))
	}

	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		unit := perLayerUnit(name)
		res.Metrics[name] = metricValue{m[name], unit}
		fmt.Fprintf(opt.stdout, "# %-30s %14.4f  %s\n", name, m[name], unit)
	}
	fmt.Fprintf(opt.stdout, "# ops_attempted=%d ops_failed=%d\n", b.attempted, b.failed)
	return nil
}

// perLayerUnit derives a per-layer metric's unit from its name.
func perLayerUnit(name string) string {
	for _, ph := range phaseNames { // go.* metrics carry the phase last
		name = strings.TrimSuffix(name, "."+ph)
	}
	for _, r := range []struct{ suffix, unit string }{
		{"_mbps", "MB/s"}, {"_per_s", "1/s"}, {"_rps", "req/s"},
		{"ns_per_msg", "ns"}, {"bytes_per_run", "B"}, {"_bytes", "B"},
		{"_ms", "ms"}, {"_us", "us"}, {"_s", "s"}, {"_mb", "MB"},
		{"_ratio", "ratio"}, {"_speedup", "ratio"},
	} {
		if strings.HasSuffix(name, r.suffix) {
			return r.unit
		}
	}
	return "count"
}
