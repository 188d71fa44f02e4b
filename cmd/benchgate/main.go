// Command benchgate turns `go test -bench` output into a benchmark-
// regression gate, first of all for ingestion.
//
// It parses the standard benchmark output format, records every benchmark
// (best-of-count ns/op, B/op, allocs/op, MB/s) into a JSON report, and
// compares a gated pair of benchmarks — by default BenchmarkAnalyze/serial
// (one ingestion worker per archive: the baseline, the report's serial
// slot) against BenchmarkAnalyze/parallel (GOMAXPROCS workers per archive:
// the contender, the parallel slot); -serial-name/-parallel-name repoint
// the pair, e.g. at BenchmarkRestore/cold vs /warm for the warm-restart
// gate. When the benchmarks ran at GOMAXPROCS >= the enforcement threshold
// (default 4), benchgate exits nonzero if the contender did not reach the
// required speedup over the baseline; below the threshold the comparison is
// recorded but not enforced, because a speedup cannot materialize without
// cores (at GOMAXPROCS 1 both ingestion sub-benchmarks run one worker per
// archive, i.e. the same thing; pass -min-procs 1 for pairs whose speedup
// does not come from cores, like warm-vs-cold restart). With -speedup-gate=false the report is
// still written but the pair is neither required nor compared — for
// benchmark suites (like the serving benchmarks) that have no such pair.
//
// Beyond the speedup pair, three absolute per-benchmark gates catch
// regressions that a relative comparison cannot: -min-mbps sets MB/s floors,
// -max-allocs sets allocs/op ceilings, and -max-ns sets ns/op ceilings (the
// latency gate the load harness uses for its p99 and error-rate lines). All
// take comma-separated name=value pairs (a bare value applies to the serial
// benchmark), are recorded into the report's per-benchmark entries
// (min_mbps / max_allocs / max_ns), and fail the run when violated —
// allocation ceilings unconditionally (alloc counts are
// hardware-independent), throughput floors and latency ceilings likewise
// since the committed values are chosen to hold on the slowest supported
// runner.
// -gates-from re-reads the gates recorded in a previous report, so CI can
// enforce exactly what the committed BENCH_*.json baseline promises;
// explicit flags override per benchmark.
//
// -compare diffs the new numbers against a previous report and writes a
// benchstat-style old-vs-new table (ns/op, MB/s, allocs/op deltas) for
// upload as a workflow artifact. The comparison never fails the run — the
// gates do that.
//
// Usage:
//
//	go test -bench 'BenchmarkAnalyze|...' -benchtime=1x -count=3 -benchmem | tee bench.txt
//	benchgate -in bench.txt -out BENCH_ingest.json -min-speedup 1.0 \
//	    -gates-from BENCH_ingest.json -compare BENCH_ingest.json -compare-out bench_compare.txt
//	benchgate -in bench.txt -out BENCH_restore.json -min-speedup 1.0 -min-procs 1 \
//	    -serial-name BenchmarkRestore/cold -parallel-name BenchmarkRestore/warm
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// run is one benchmark line: a name, an iteration count and metric pairs.
type run struct {
	NsPerOp     float64
	BytesPerOp  float64
	AllocsPerOp float64
	MBPerSec    float64
}

// summary is the per-benchmark aggregate written to the report: the best
// (minimum) ns/op across -count repetitions, with the other metrics taken
// from that fastest run. MinMBPerSec/MaxAllocs record the absolute gates
// this benchmark was (and must keep being) held to.
type summary struct {
	Name        string  `json:"name"`
	Procs       int     `json:"procs"`
	Runs        int     `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
	MinMBPerSec float64 `json:"min_mbps,omitempty"`
	MaxAllocs   float64 `json:"max_allocs,omitempty"`
	MaxNs       float64 `json:"max_ns,omitempty"`
}

// report is the BENCH_ingest.json schema.
type report struct {
	Procs      int       `json:"procs"`
	Enforced   bool      `json:"enforced"`
	MinSpeedup float64   `json:"min_speedup"`
	Speedup    float64   `json:"speedup,omitempty"`
	Serial     *summary  `json:"serial,omitempty"`
	Parallel   *summary  `json:"parallel,omitempty"`
	Benchmarks []summary `json:"benchmarks"`
}

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func realMain() error {
	var (
		in          = flag.String("in", "-", "benchmark output file (- for stdin)")
		out         = flag.String("out", "BENCH_ingest.json", "JSON report path (- for stdout)")
		minSpeedup  = flag.Float64("min-speedup", 1.0, "required parallel-over-serial speedup when enforcing")
		minProcs    = flag.Int("min-procs", 4, "enforce the speedup only at GOMAXPROCS >= this")
		speedupGate = flag.Bool("speedup-gate", true, "require the gated benchmark pair and enforce the speedup; disable for benchmark suites without that pair")
		serialName  = flag.String("serial-name", "BenchmarkAnalyze/serial", "benchmark filling the report's serial (baseline) slot")
		parName     = flag.String("parallel-name", "BenchmarkAnalyze/parallel", "benchmark filling the report's parallel (contender) slot")
		minMBps     = flag.String("min-mbps", "", "per-benchmark MB/s floors, comma-separated name=value pairs (bare value applies to -serial-name); recorded into the report and enforced")
		maxAllocs   = flag.String("max-allocs", "", "per-benchmark allocs/op ceilings, same syntax as -min-mbps; recorded into the report and enforced")
		maxNs       = flag.String("max-ns", "", "per-benchmark ns/op ceilings, same syntax as -min-mbps; recorded into the report and enforced")
		gatesFrom   = flag.String("gates-from", "", "previous report whose recorded min_mbps/max_allocs gates to enforce; explicit flags override per benchmark")
		compare     = flag.String("compare", "", "previous report to diff against; writes a benchstat-style old-vs-new table")
		compareOut  = flag.String("compare-out", "-", "comparison table path (- for stdout)")
	)
	flag.Parse()

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	sums, err := parseBench(r)
	if err != nil {
		return err
	}
	if len(sums) == 0 {
		return fmt.Errorf("no benchmark lines found in %s", *in)
	}

	gates, err := collectGates(*gatesFrom, *minMBps, *maxAllocs, *maxNs, *serialName)
	if err != nil {
		return err
	}
	gateErrs, err := applyGates(sums, gates)
	if err != nil {
		return err
	}

	rep := report{MinSpeedup: *minSpeedup, Benchmarks: sums}
	for i := range sums {
		if rep.Procs < sums[i].Procs {
			rep.Procs = sums[i].Procs
		}
		switch sums[i].Name {
		case *serialName:
			rep.Serial = &sums[i]
		case *parName:
			rep.Parallel = &sums[i]
		}
	}
	if rep.Serial != nil && rep.Parallel != nil && rep.Parallel.NsPerOp > 0 {
		rep.Speedup = rep.Serial.NsPerOp / rep.Parallel.NsPerOp
	}
	rep.Enforced = *speedupGate && rep.Procs >= *minProcs

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
	} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
		return err
	}

	if *compare != "" {
		if err := writeComparison(*compare, sums, *compareOut); err != nil {
			return err
		}
	}

	for _, ge := range gateErrs {
		fmt.Fprintln(os.Stderr, "benchgate:", ge)
	}
	if len(gateErrs) > 0 {
		return fmt.Errorf("%d absolute gate violation(s)", len(gateErrs))
	}

	if !*speedupGate {
		fmt.Fprintf(os.Stderr, "benchgate: recorded %d benchmarks at GOMAXPROCS=%d, speedup gate disabled\n",
			len(sums), rep.Procs)
		return nil
	}
	if rep.Serial == nil || rep.Parallel == nil {
		return fmt.Errorf("missing %s or %s in input", *serialName, *parName)
	}
	fmt.Fprintf(os.Stderr, "benchgate: %s %.0f ns/op, %s %.0f ns/op, speedup %.2fx at GOMAXPROCS=%d\n",
		*serialName, rep.Serial.NsPerOp, *parName, rep.Parallel.NsPerOp, rep.Speedup, rep.Procs)
	if !rep.Enforced {
		fmt.Fprintf(os.Stderr, "benchgate: GOMAXPROCS=%d < %d, speedup not enforced\n", rep.Procs, *minProcs)
		return nil
	}
	if rep.Speedup < *minSpeedup {
		return fmt.Errorf("%s regressed against %s: speedup %.2fx < required %.2fx at GOMAXPROCS=%d",
			*parName, rep.Serial.Name, rep.Speedup, *minSpeedup, rep.Procs)
	}
	return nil
}

// gate is one benchmark's absolute limits; zero means unset.
type gate struct {
	minMBps   float64
	maxAllocs float64
	maxNs     float64
}

// collectGates assembles the per-benchmark absolute gates: those recorded
// in the gatesFrom report first, then the explicit flag specs on top.
func collectGates(gatesFrom, minMBps, maxAllocs, maxNs, serialName string) (map[string]gate, error) {
	gates := make(map[string]gate)
	if gatesFrom != "" {
		prev, err := readReport(gatesFrom)
		if err != nil {
			return nil, fmt.Errorf("-gates-from: %w", err)
		}
		for _, s := range prev.Benchmarks {
			if s.MinMBPerSec > 0 || s.MaxAllocs > 0 || s.MaxNs > 0 {
				gates[s.Name] = gate{minMBps: s.MinMBPerSec, maxAllocs: s.MaxAllocs, maxNs: s.MaxNs}
			}
		}
	}
	if err := parseGateSpec(minMBps, serialName, gates, func(g *gate, v float64) { g.minMBps = v }); err != nil {
		return nil, fmt.Errorf("-min-mbps: %w", err)
	}
	if err := parseGateSpec(maxAllocs, serialName, gates, func(g *gate, v float64) { g.maxAllocs = v }); err != nil {
		return nil, fmt.Errorf("-max-allocs: %w", err)
	}
	if err := parseGateSpec(maxNs, serialName, gates, func(g *gate, v float64) { g.maxNs = v }); err != nil {
		return nil, fmt.Errorf("-max-ns: %w", err)
	}
	return gates, nil
}

// parseGateSpec parses a comma-separated list of name=value gate pairs
// (bare values target serialName) into gates via set.
func parseGateSpec(spec, serialName string, gates map[string]gate, set func(*gate, float64)) error {
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val := serialName, part
		if i := strings.LastIndexByte(part, '='); i >= 0 {
			name, val = strings.TrimSpace(part[:i]), strings.TrimSpace(part[i+1:])
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil || v <= 0 {
			return fmt.Errorf("bad gate value %q (want a positive number)", part)
		}
		g := gates[name]
		set(&g, v)
		gates[name] = g
	}
	return nil
}

// applyGates records each gate into its benchmark's summary and returns the
// violations. A gate naming a benchmark absent from the input is an error:
// a silently unmatched gate is a gate that stopped gating.
func applyGates(sums []summary, gates map[string]gate) ([]error, error) {
	byName := make(map[string]*summary, len(sums))
	for i := range sums {
		byName[sums[i].Name] = &sums[i]
	}
	names := make([]string, 0, len(gates))
	for name := range gates {
		names = append(names, name)
	}
	sort.Strings(names)
	var violations []error
	for _, name := range names {
		s, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("gate for %s matches no benchmark in the input", name)
		}
		g := gates[name]
		s.MinMBPerSec, s.MaxAllocs, s.MaxNs = g.minMBps, g.maxAllocs, g.maxNs
		if g.minMBps > 0 && s.MBPerSec < g.minMBps {
			violations = append(violations, fmt.Errorf("%s throughput %.2f MB/s is below the %.2f MB/s floor",
				name, s.MBPerSec, g.minMBps))
		}
		if g.maxAllocs > 0 && s.AllocsPerOp > g.maxAllocs {
			violations = append(violations, fmt.Errorf("%s allocations %.0f allocs/op exceed the %.0f allocs/op ceiling",
				name, s.AllocsPerOp, g.maxAllocs))
		}
		if g.maxNs > 0 && s.NsPerOp > g.maxNs {
			violations = append(violations, fmt.Errorf("%s latency %.0f ns/op exceeds the %.0f ns/op ceiling",
				name, s.NsPerOp, g.maxNs))
		}
	}
	return violations, nil
}

// readReport loads a previously written BENCH_*.json report.
func readReport(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// writeComparison diffs the new summaries against the oldPath report and
// writes a benchstat-style table to outPath.
func writeComparison(oldPath string, sums []summary, outPath string) error {
	prev, err := readReport(oldPath)
	if err != nil {
		return fmt.Errorf("-compare: %w", err)
	}
	var b strings.Builder
	formatComparison(&b, prev.Benchmarks, sums)
	if outPath == "-" {
		_, err = os.Stdout.WriteString(b.String())
		return err
	}
	return os.WriteFile(outPath, []byte(b.String()), 0o644)
}

// formatComparison renders old-vs-new metric tables in benchstat style: one
// section per metric, one row per benchmark present on both sides, with the
// relative delta (negative ns/op and allocs/op deltas are improvements,
// negative MB/s deltas are regressions). One-sided benchmarks are listed at
// the end so additions and removals stay visible.
func formatComparison(w io.Writer, old, new []summary) {
	oldBy := make(map[string]summary, len(old))
	for _, s := range old {
		oldBy[s.Name] = s
	}
	type row struct {
		name     string
		old, new float64
	}
	metrics := []struct {
		label string
		get   func(summary) float64
	}{
		{"ns/op", func(s summary) float64 { return s.NsPerOp }},
		{"MB/s", func(s summary) float64 { return s.MBPerSec }},
		{"allocs/op", func(s summary) float64 { return s.AllocsPerOp }},
	}
	for _, m := range metrics {
		var rows []row
		for _, s := range new {
			o, ok := oldBy[s.Name]
			if !ok || m.get(o) == 0 && m.get(s) == 0 {
				continue
			}
			rows = append(rows, row{s.Name, m.get(o), m.get(s)})
		}
		if len(rows) == 0 {
			continue
		}
		tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
		fmt.Fprintf(tw, "name\told %s\tnew %s\tdelta\n", m.label, m.label)
		for _, r := range rows {
			delta := "~"
			if r.old != 0 {
				delta = fmt.Sprintf("%+.2f%%", (r.new-r.old)/r.old*100)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n",
				strings.TrimPrefix(r.name, "Benchmark"), formatMetric(r.old), formatMetric(r.new), delta)
		}
		tw.Flush()
		fmt.Fprintln(w)
	}
	newBy := make(map[string]bool, len(new))
	for _, s := range new {
		newBy[s.Name] = true
	}
	for _, s := range new {
		if _, ok := oldBy[s.Name]; !ok {
			fmt.Fprintf(w, "new benchmark: %s\n", s.Name)
		}
	}
	for _, s := range old {
		if !newBy[s.Name] {
			fmt.Fprintf(w, "removed benchmark: %s\n", s.Name)
		}
	}
}

// formatMetric renders a metric value without trailing decimal noise.
func formatMetric(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', 2, 64)
}

// parseBench reads `go test -bench` output and aggregates repeated runs of
// the same benchmark into best-of summaries, in first-seen order.
func parseBench(r io.Reader) ([]summary, error) {
	best := make(map[string]*summary)
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		name, rn, procs, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		s, seen := best[name]
		if !seen {
			s = &summary{Name: name, Procs: procs, NsPerOp: rn.NsPerOp,
				BytesPerOp: rn.BytesPerOp, AllocsPerOp: rn.AllocsPerOp, MBPerSec: rn.MBPerSec}
			best[name] = s
			order = append(order, name)
		} else if rn.NsPerOp < s.NsPerOp {
			s.NsPerOp, s.BytesPerOp, s.AllocsPerOp, s.MBPerSec = rn.NsPerOp, rn.BytesPerOp, rn.AllocsPerOp, rn.MBPerSec
		}
		s.Runs++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]summary, 0, len(order))
	for _, name := range order {
		out = append(out, *best[name])
	}
	return out, nil
}

// parseLine parses one benchmark result line, e.g.
//
//	BenchmarkAnalyze/serial-8   3   512345 ns/op   9.07 MB/s   2201 B/op   76 allocs/op
//
// The -8 suffix is the GOMAXPROCS the benchmark ran at (absent at 1).
func parseLine(line string) (name string, rn run, procs int, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", run{}, 0, false
	}
	name, procs = splitProcs(fields[0])
	if _, err := strconv.Atoi(fields[1]); err != nil {
		return "", run{}, 0, false
	}
	got := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", run{}, 0, false
		}
		switch fields[i+1] {
		case "ns/op":
			rn.NsPerOp, got = v, true
		case "B/op":
			rn.BytesPerOp = v
		case "allocs/op":
			rn.AllocsPerOp = v
		case "MB/s":
			rn.MBPerSec = v
		}
	}
	return name, rn, procs, got
}

// splitProcs strips the trailing -N GOMAXPROCS suffix from a benchmark name.
func splitProcs(s string) (string, int) {
	i := strings.LastIndexByte(s, '-')
	if i < 0 {
		return s, 1
	}
	n, err := strconv.Atoi(s[i+1:])
	if err != nil || n < 1 {
		return s, 1
	}
	return s[:i], n
}
