// Command logdiver analyzes HPC log archives: it joins workload accounting,
// ALPS application logs and syslog error logs, attributes every application
// run's outcome, and prints the study's tables.
//
// Usage:
//
//	logdiver analyze -accounting acc.log -apsys apsys.log -syslog sys.log \
//	    [-truth truth.jsonl] [-machine bluewaters|small] [-format ascii|md|csv]
//	    [-rules site-rules.txt] [-parse-mode lenient|strict]
//	logdiver analyze -fleet-config fleet.conf [-format ascii|md|csv] \
//	    [-rules site-rules.txt] [-parse-mode lenient|strict]
//	logdiver coalesce -syslog sys.log [-machine bluewaters|small] \
//	    [-temporal 5m] [-spatial 2m] [-top 25]
//	logdiver avail -syslog sys.log [-machine bluewaters|small] [-top 5]
//	logdiver lint-rules [-rules site-rules.txt] [-json]
//	logdiver mutate -in sys.log -out sys.corrupt.log [-manifest m.json] \
//	    [-seed N] [-budget F] [-ops truncate,encoding,...] [-max-per-op N]
//	logdiver generate -days 30 -out ./archive \
//	    [-machine bluewaters|small] [-start YYYY-MM-DD] [-seed N]
//	logdiver generate -fleet K -days D -out ./fleet [-seed N] \
//	    [-fleet-window W] [-fleet-only NAME]
//	logdiver simulate -accounting acc.log -apsys apsys.log -syslog sys.log \
//	    [-policy policies.conf | -checkpoint daly -retry-limit 2 ...] \
//	    [-seed N] [-machine bluewaters|small] [-format ascii|md|csv] [-json]
//	logdiver state -file state.ldv | -state-dir ./state [-json]
//	logdiver version
//
// lint-rules runs the internal/rulecheck semantic linter over a classifier
// rule file (or over the built-in taxonomy when -rules is omitted) and
// exits nonzero when any error-severity finding fires. analyze applies the
// same linter to -rules files before using them; -validate-rules=false
// skips that gate.
//
// Every worker pool (analyze's block workers, one pool per archive, the
// three archives read concurrently; simulate's replay; generate's archive
// emission) runs runtime.GOMAXPROCS(0) workers, so the GOMAXPROCS
// environment variable sets them. Results and output bytes are identical at
// any setting.
//
// -parse-mode selects the malformed-input policy: lenient (default) skips
// unparseable lines and accounts them per kind in the stderr summary;
// strict fails on the first malformed line, naming archive and line.
//
// mutate deterministically corrupts a log archive for robustness testing
// (seeded operators: truncate, interleave, duplicate, reorder, skew,
// encoding, fielddrop, oversize) and writes a JSON manifest of every
// injected mutation.
//
// generate writes the three raw archives plus ground truth. -machine small
// rescales both the topology and the workload so a few days analyze in
// seconds; -start and -seed let successive invocations produce disjoint
// production windows, which can be appended to a live logdiverd data
// directory.
//
// analyze -fleet-config runs logdiverd's runtime (internal/fleet) over every
// shard of a fleet config (one archive directory per machine) until the
// archives are drained, without reading or writing the shards' state, and
// prints the fleet tables (F1-F3) of its merged view.
// generate -fleet K lays out a K-machine small-profile fleet under -out —
// one archive subdirectory per machine plus a ready-to-run fleet.conf —
// while -fleet-window W appends production window W to the existing shard
// archives (optionally a single machine via -fleet-only), which advances
// one shard's epoch of a running fleet daemon.
//
// simulate runs the counterfactual resilience simulator over an analyzed
// archive: it attributes every run exactly as analyze does, then replays
// the run stream under declarative resilience policies (checkpoint/restart
// with fixed or Daly-optimal intervals, bounded retry, detection-coverage
// counterfactuals) and prints the what-if tables (W1-W3) comparing each
// policy against the measured baseline. Policies come from a -policy config
// file (see SIMULATION.md), from the inline single-policy flags, or default
// to the built-in policy set. Same archive and -seed: identical output.
//
// state inspects and verifies a logdiverd durable-state file (the
// <state-dir>/state.ldv a daemon warm-starts from): it validates the
// header, version and checksum exactly as the daemon would and prints the
// epoch, configuration fingerprint, tail offsets and pipeline population —
// or fails nonzero with the rejection reason. Use it as a pre-flight check
// before restarting a production daemon.
//
// The analyze subcommand prints the experiment tables (E1-E17, plus the
// A1-A3 ablations when -truth is given) to stdout, and an archive-hygiene
// summary (per-kind malformed-line counts) to stderr. coalesce prints the
// machine-level error events; avail reconstructs node availability.
// version prints the build's module version, VCS revision and Go version.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"logdiver"
	"logdiver/internal/avail"
	"logdiver/internal/coalesce"
	"logdiver/internal/fleet"
	"logdiver/internal/gen"
	"logdiver/internal/metrics"
	"logdiver/internal/mutate"
	"logdiver/internal/report"
	"logdiver/internal/rulecheck"
	"logdiver/internal/taxonomy"
	"logdiver/internal/version"
	"logdiver/internal/whatif"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "logdiver:", err)
		os.Exit(1)
	}
}

// subcommands is the one list of what logdiver can do: run dispatches on
// it and the usage line and the unknown-subcommand error are built from it.
var subcommands = []struct {
	name string
	run  func(args []string) error
}{
	{"analyze", analyze},
	{"avail", availCmd},
	{"coalesce", coalesceCmd},
	{"generate", generate},
	{"lint-rules", lintRules},
	{"mutate", mutateCmd},
	{"simulate", simulate},
	{"state", stateCmd},
	{"version", func([]string) error { fmt.Println(version.Get()); return nil }},
}

func run(args []string) error {
	names := make([]string, len(subcommands))
	for i, sc := range subcommands {
		names[i] = sc.name
	}
	if len(args) == 0 {
		return fmt.Errorf("usage: logdiver <%s> [flags]", strings.Join(names, "|"))
	}
	name := args[0]
	if name == "-version" || name == "--version" {
		name = "version"
	}
	for _, sc := range subcommands {
		if sc.name == name {
			return sc.run(args[1:])
		}
	}
	return fmt.Errorf("unknown subcommand %q (want one of %s)", args[0], strings.Join(names, ", "))
}

func analyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	var (
		accPath  = fs.String("accounting", "", "path to the accounting archive")
		apsPath  = fs.String("apsys", "", "path to the apsys archive")
		sysPath  = fs.String("syslog", "", "path to the syslog archive")
		truth    = fs.String("truth", "", "optional ground-truth sidecar (enables E9/A1/A2)")
		machine  = fs.String("machine", "bluewaters", "machine model: bluewaters or small")
		format   = fs.String("format", "ascii", "output format: ascii, md or csv")
		rules    = fs.String("rules", "", "optional classifier rule file (replaces the built-in taxonomy rules)")
		validate = fs.Bool("validate-rules", true, "lint -rules files and reject rule sets with error-severity findings")
		mode     = fs.String("parse-mode", "lenient", "malformed-input policy: lenient (skip and account) or strict (fail fast)")
		fleetCfg = fs.String("fleet-config", "", "fleet config file: analyze every [shard NAME] archive dir and print merged fleet tables (mutually exclusive with the per-archive flags)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	parseMode, err := logdiver.ParseModeFromString(*mode)
	if err != nil {
		return err
	}
	if *fleetCfg != "" && (*accPath != "" || *apsPath != "" || *sysPath != "" || *truth != "") {
		return fmt.Errorf("analyze: -fleet-config is mutually exclusive with -accounting/-apsys/-syslog/-truth")
	}
	if *fleetCfg == "" && *apsPath == "" {
		return fmt.Errorf("analyze: -apsys is required (application runs are the unit of analysis)")
	}
	cls, _, err := rulecheck.LoadClassifier(*rules, *validate, func(fd rulecheck.Finding) {
		fmt.Fprintf(os.Stderr, "logdiver: %s: %s\n", *rules, fd)
	})
	if err != nil {
		return err
	}
	opts := logdiver.Options{ParseMode: parseMode, Classifier: cls}
	if *fleetCfg != "" {
		return analyzeFleet(*fleetCfg, opts, *format)
	}

	archives, top, closeAll, err := openArchives(*accPath, *apsPath, *sysPath, *machine)
	if err != nil {
		return err
	}
	defer closeAll()
	res, err := logdiver.Analyze(archives, top, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "parsed: %d jobs, %d runs, %d events (malformed lines skipped: %d accounting, %d apsys, %d syslog)\n",
		res.NumJobs, len(res.Runs), len(res.Events),
		res.Parse.AccountingMalformed, res.Parse.ApsysMalformed, res.Parse.SyslogMalformed)
	for _, h := range res.Parse.Hygiene() {
		fmt.Fprintf(os.Stderr, "  %s\n", h)
	}
	for _, s := range res.Parse.SyslogDetail.Samples.All() {
		fmt.Fprintf(os.Stderr, "  malformed: %s\n", s)
	}

	var truthMap map[uint64]logdiver.Truth
	if *truth != "" {
		f, err := os.Open(*truth)
		if err != nil {
			return err
		}
		truthMap, err = gen.ReadTruth(f)
		f.Close()
		if err != nil {
			return err
		}
	}

	tables, err := logdiver.Experiments(res, top, truthMap)
	if err != nil {
		return err
	}
	return report.Write(os.Stdout, *format, tables)
}

// analyzeSyslog runs the pipeline over a syslog archive alone: its Result
// holds the classified, deduplicated events — each attributed to its node
// in the machine's topology; hosts that are not node cnames (service hosts,
// the SMW) attribute system-wide — and the pre-dedup count. Shared by
// coalesce and avail.
func analyzeSyslog(sysPath, machineName string) (*logdiver.Result, *logdiver.Topology, error) {
	archives, top, closeAll, err := openArchives("", "", sysPath, machineName)
	if err != nil {
		return nil, nil, err
	}
	defer closeAll()
	res, err := logdiver.Analyze(archives, top, logdiver.Options{})
	return res, top, err
}

// openArchives resolves the machine model and opens whichever of the three
// archive paths are non-empty. The caller calls closeAll when the analysis
// is done. Shared by analyze, simulate, coalesce and avail.
func openArchives(accPath, apsPath, sysPath, machineName string) (_ logdiver.Archives, _ *logdiver.Topology, closeAll func(), _ error) {
	top, err := fleet.Topology(machineName)
	if err != nil {
		return logdiver.Archives{}, nil, nil, err
	}
	var archives logdiver.Archives
	var files []*os.File
	closeAll = func() {
		for _, f := range files {
			f.Close()
		}
	}
	openInto := func(path string, dst *io.Reader) error {
		if path == "" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		files = append(files, f)
		*dst = f
		return nil
	}
	for _, o := range []struct {
		path string
		dst  *io.Reader
	}{
		{accPath, &archives.Accounting},
		{apsPath, &archives.Apsys},
		{sysPath, &archives.Syslog},
	} {
		if err := openInto(o.path, o.dst); err != nil {
			closeAll()
			return logdiver.Archives{}, nil, nil, err
		}
	}
	return archives, top, closeAll, nil
}

// simulate replays an analyzed archive through the counterfactual resilience
// simulator: attribute every run, derive the by-scale MTTI table, and report
// what each policy (checkpoint/restart, retry, detection coverage) would
// have changed. Policies come from a -policy config file, from the inline
// flags (one policy), or default to whatif.DefaultPolicies.
func simulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	var (
		accPath = fs.String("accounting", "", "path to the accounting archive")
		apsPath = fs.String("apsys", "", "path to the apsys archive")
		sysPath = fs.String("syslog", "", "path to the syslog archive")
		machine = fs.String("machine", "bluewaters", "machine model: bluewaters or small")
		mode    = fs.String("parse-mode", "lenient", "malformed-input policy: lenient (skip and account) or strict (fail fast)")
		policy  = fs.String("policy", "", "policy config file (whatif format; mutually exclusive with the inline policy flags)")
		seed    = fs.Int64("seed", 1, "simulation seed (same seed, same archive: identical report)")
		format  = fs.String("format", "ascii", "output format: ascii, md or csv")
		jsonOut = fs.Bool("json", false, "emit the full report as JSON instead of tables")

		// Inline single-policy flags, rendered into the same config
		// vocabulary the -policy file uses (read back via fs.Visit, so
		// only the name flag needs a binding).
		name = fs.String("name", "policy", "inline policy name")
	)
	fs.String("checkpoint", "", "checkpointing: none, fixed or daly")
	fs.Duration("checkpoint-interval", 0, "fixed checkpoint interval")
	fs.Duration("checkpoint-cost", 0, "time to write one checkpoint")
	fs.Duration("restart-cost", 0, "time to restore from a checkpoint")
	fs.Int("retry-limit", 0, "automatic retries per interrupted run")
	fs.Duration("retry-backoff", 0, "delay before each retry")
	fs.Float64("detect-fraction", 0, "fraction of silent XK failures made detectable [0,1]")
	if err := fs.Parse(args); err != nil {
		return err
	}
	parseMode, err := logdiver.ParseModeFromString(*mode)
	if err != nil {
		return err
	}
	if *apsPath == "" {
		return fmt.Errorf("simulate: -apsys is required (application runs are the unit of analysis)")
	}

	// Inline flags render into the config text format, so the file and
	// flag paths share one parser, one validator and one vocabulary.
	var inline strings.Builder
	fmt.Fprintf(&inline, "[policy %s]\n", *name)
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "checkpoint", "checkpoint-interval", "checkpoint-cost",
			"restart-cost", "retry-limit", "retry-backoff", "detect-fraction":
			fmt.Fprintf(&inline, "%s = %s\n", f.Name, f.Value)
		}
	})
	inlineSet := strings.Count(inline.String(), "\n") > 1
	var policies []whatif.Policy
	switch {
	case *policy != "" && inlineSet:
		return fmt.Errorf("simulate: -policy is mutually exclusive with the inline policy flags")
	case *policy != "":
		if policies, err = whatif.LoadPolicies(*policy); err != nil {
			return err
		}
	case inlineSet:
		if policies, err = whatif.ParsePolicies(inline.String()); err != nil {
			return err
		}
	default:
		policies = whatif.DefaultPolicies()
	}

	archives, top, closeAll, err := openArchives(*accPath, *apsPath, *sysPath, *machine)
	if err != nil {
		return err
	}
	defer closeAll()
	res, err := logdiver.Analyze(archives, top, logdiver.Options{ParseMode: parseMode})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "parsed: %d runs; simulating %d policies, seed %d\n",
		len(res.Runs), len(policies), *seed)

	mtti, err := res.Agg.MTTI(metrics.GeometricBuckets(top.NumNodes()), 0)
	if err != nil {
		return err
	}
	rep, err := whatif.Simulate(whatif.Input{Runs: res.Runs, MTTI: mtti},
		policies, whatif.Options{Seed: *seed})
	if err != nil {
		return err
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	return report.Write(os.Stdout, *format, rep.Tables())
}

// lintRules runs the semantic rule-set linter over a rule file, or over
// the built-in taxonomy when no file is given, and reports every finding.
// Error-severity findings (shadowed rules, universal patterns, duplicate
// names, ...) make the command fail; warnings alone do not.
func lintRules(args []string) error {
	fs := flag.NewFlagSet("lint-rules", flag.ContinueOnError)
	var (
		rules   = fs.String("rules", "", "classifier rule file to lint (default: the built-in taxonomy rules)")
		jsonOut = fs.Bool("json", false, "emit findings as a JSON array")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	ruleSet := taxonomy.Default().Rules()
	source := "builtin rules"
	if *rules != "" {
		source = *rules
		f, err := os.Open(*rules)
		if err != nil {
			return err
		}
		ruleSet, err = taxonomy.ReadRuleFile(f)
		f.Close()
		if err != nil {
			return err
		}
	}

	findings := rulecheck.Check(ruleSet)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		// Encode the empty set as [], not null, for downstream jq.
		if findings == nil {
			findings = []rulecheck.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			return err
		}
	} else {
		for _, fd := range findings {
			fmt.Println(fd)
		}
	}
	var nerr, nwarn int
	for _, fd := range findings {
		if fd.Severity == rulecheck.Error {
			nerr++
		} else {
			nwarn++
		}
	}
	if nerr > 0 {
		return fmt.Errorf("lint-rules: %s: %d error(s), %d warning(s) in %d rules",
			source, nerr, nwarn, len(ruleSet))
	}
	fmt.Fprintf(os.Stderr, "lint-rules: %s: %d rules clean (%d warning(s))\n", source, len(ruleSet), nwarn)
	return nil
}

// coalesceCmd reads a syslog archive and prints the machine-level error
// events the coalescer reconstructs: the operations view of the error log.
func coalesceCmd(args []string) error {
	fs := flag.NewFlagSet("coalesce", flag.ContinueOnError)
	var (
		sysPath  = fs.String("syslog", "", "path to the syslog archive")
		mc       = fs.String("machine", "bluewaters", "machine model: bluewaters or small")
		temporal = fs.Duration("temporal", coalesce.DefaultTemporalWindow, "tupling window")
		spatial  = fs.Duration("spatial", coalesce.DefaultSpatialWindow, "spatial merge window")
		top      = fs.Int("top", 25, "print the N largest machine-level events")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sysPath == "" {
		return fmt.Errorf("coalesce: -syslog is required")
	}
	res, _, err := analyzeSyslog(*sysPath, *mc)
	if err != nil {
		return err
	}
	_, groups, stats := coalesce.Pipeline(res.Events, res.RawEvents, *temporal, *spatial)
	fmt.Printf("%s\n\n", stats)
	// Largest groups by raw-event volume first.
	sort.Slice(groups, func(i, j int) bool { return groups[i].Events > groups[j].Events })
	n := *top
	if n > len(groups) {
		n = len(groups)
	}
	fmt.Printf("%-20s %-16s %-6s %8s %10s\n", "start", "category", "sev", "events", "span")
	for _, g := range groups[:n] {
		fmt.Printf("%-20s %-16s %-6s %8d %10s\n",
			g.Start.Format("2006-01-02 15:04:05"), g.Category, g.Severity,
			g.Events, g.End.Sub(g.Start).Round(time.Second))
	}
	return nil
}

// availCmd reconstructs node availability from a syslog archive: failures,
// repair times and aggregate machine availability.
func availCmd(args []string) error {
	fs := flag.NewFlagSet("avail", flag.ContinueOnError)
	var (
		sysPath = fs.String("syslog", "", "path to the syslog archive")
		mc      = fs.String("machine", "bluewaters", "machine model: bluewaters or small")
		topN    = fs.Int("top", 5, "print the N longest outages")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sysPath == "" {
		return fmt.Errorf("avail: -syslog is required")
	}
	res, top, err := analyzeSyslog(*sysPath, *mc)
	if err != nil {
		return err
	}
	events := res.Events
	if len(events) == 0 {
		return fmt.Errorf("avail: no classifiable events in %s", *sysPath)
	}
	first, last := events[0].Time, events[len(events)-1].Time // Result.Events is in time order
	downs, err := avail.Reconstruct(events, last)
	if err != nil {
		return err
	}
	sum, err := avail.Summarize(downs, top.NumXE()+top.NumXK(), first, last)
	if err != nil {
		return err
	}
	fmt.Printf("window: %s to %s (%.1f days)\n", first.Format("2006-01-02"),
		last.Format("2006-01-02"), sum.WindowHours/24)
	fmt.Printf("node failures: %d (%d unresolved), %d distinct nodes\n",
		sum.Failures, sum.OpenFailures, sum.DistinctNodes)
	fmt.Printf("downtime: %.1f node-hours; MTTR %.2f h; availability %.4f%%\n",
		sum.DowntimeHours, sum.MTTRHours, 100*sum.Availability)
	for _, c := range avail.CausesOf(downs) {
		fmt.Printf("  cause %-16s %d\n", c.Cause, c.Count)
	}
	sort.Slice(downs, func(i, j int) bool { return downs[i].Duration() > downs[j].Duration() })
	n := *topN
	if n > len(downs) {
		n = len(downs)
	}
	fmt.Printf("longest outages:\n")
	for _, d := range downs[:n] {
		open := ""
		if d.Open {
			open = " (unresolved)"
		}
		node, err := top.Node(d.Node)
		cname := "?"
		if err == nil {
			cname = node.Cname.String()
		}
		fmt.Printf("  %-14s %-16s %s for %s%s\n", cname, d.Cause,
			d.From.Format("2006-01-02 15:04"), d.Duration().Round(time.Minute), open)
	}
	return nil
}

// mutateCmd deterministically corrupts a log archive with the seeded
// operators of internal/mutate and writes the mutated archive plus an
// optional JSON manifest of every injected mutation.
func mutateCmd(args []string) error {
	fs := flag.NewFlagSet("mutate", flag.ContinueOnError)
	var (
		in       = fs.String("in", "", "archive to corrupt")
		out      = fs.String("out", "", "where to write the mutated archive")
		manifest = fs.String("manifest", "", "optional path for the JSON mutation manifest")
		seed     = fs.Int64("seed", 1, "mutation seed (same seed, same input: identical output)")
		budget   = fs.Float64("budget", mutate.DefaultBudget, "per-operator corruption budget as a fraction of input lines")
		ops      = fs.String("ops", "", "comma-separated operator subset (default: all): "+opNames())
		maxPer   = fs.Int("max-per-op", 0, "hard cap on mutations per operator (0 = budget only)")
		block    = fs.Int("block-lines", mutate.DefaultBlockLines, "block size for duplicate/reorder operators")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("mutate: -in and -out are required")
	}
	cfg := mutate.Config{Seed: *seed, Budget: *budget, MaxPerOp: *maxPer, BlockLines: *block}
	if *ops != "" {
		for _, name := range strings.Split(*ops, ",") {
			o, ok := mutate.OpFromString(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("mutate: unknown operator %q (want %s)", name, opNames())
			}
			cfg.Ops = append(cfg.Ops, o)
		}
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	mutated, m := mutate.Apply(data, cfg)
	if err := os.WriteFile(*out, mutated, 0o644); err != nil {
		return err
	}
	if *manifest != "" {
		f, err := os.Create(*manifest)
		if err != nil {
			return err
		}
		if err := m.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "mutated %s: %d -> %d lines, %d mutations (%d corrupting) seed=%d\n",
		*in, m.InputLines, m.OutputLines, len(m.Mutations), len(m.Corrupting()), m.Seed)
	return nil
}

// opNames renders the mutate operator vocabulary for flag help and errors.
func opNames() string {
	var names []string
	for _, o := range mutate.AllOps() {
		names = append(names, o.String())
	}
	return strings.Join(names, ",")
}

// generate synthesizes the three raw archives plus ground truth; it is the
// repository's only archive generator.
func generate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	var (
		days     = fs.Int("days", 30, "production days to synthesize")
		seed     = fs.Int64("seed", 1, "random seed")
		out      = fs.String("out", "archive", "output directory")
		machine  = fs.String("machine", "bluewaters", "machine model: bluewaters or small (small rescales the workload too)")
		start    = fs.String("start", "", "first production day (YYYY-MM-DD; default 2013-04-01)")
		fleetK   = fs.Int("fleet", 0, "generate a K-machine fleet: one small-machine archive dir per shard plus a ready-to-run fleet.conf under -out")
		fleetWin = fs.Int("fleet-window", 0, "with -fleet: append production window W to the existing shard archives instead of recreating them")
		fleetOne = fs.String("fleet-only", "", "with -fleet: write only the named machine's data (grow one shard of an existing fleet)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fleetK > 0 {
		return generateFleet(*fleetK, *days, *seed, *fleetWin, *fleetOne, *out)
	}
	if *fleetWin != 0 || *fleetOne != "" {
		return fmt.Errorf("generate: -fleet-window and -fleet-only require -fleet K")
	}
	var cfg logdiver.GeneratorConfig
	switch *machine {
	case "bluewaters":
		cfg = logdiver.ScaledGeneratorConfig(*days)
	case "small":
		cfg = logdiver.SmallGeneratorConfig(*days)
	default:
		return fmt.Errorf("unknown machine %q", *machine)
	}
	cfg.Seed = *seed
	if *start != "" {
		at, err := time.Parse("2006-01-02", *start)
		if err != nil {
			return fmt.Errorf("generate: bad -start: %w", err)
		}
		cfg.Start = at
	}
	ds, err := logdiver.Generate(cfg)
	if err != nil {
		return err
	}
	if err := ds.WriteDir(*out); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d jobs / %d runs / %d events to %s\n",
		len(ds.Jobs), len(ds.Runs), len(ds.Events), *out)
	return nil
}
