// Package logdiver is a reproduction of the measurement system behind
// "Measuring and Understanding Extreme-Scale Application Resilience: A Field
// Study of 5,000,000 HPC Application Runs" (Di Martino, Kramer, Kalbarczyk,
// Iyer — DSN 2015). It provides:
//
//   - a LogDiver-style analysis pipeline that joins workload accounting
//     logs, ALPS application logs and syslog error archives to attribute
//     every application run's outcome (success / user failure / walltime /
//     system failure) to an error category;
//   - the full supporting substrate: a Cray XE/XK machine model with cname
//     topology, parsers and writers for all three log formats, an error
//     taxonomy and classifier, temporal/spatial log coalescing, a node-time
//     event index, and a statistics toolkit;
//   - a calibrated field-data synthesizer that stands in for the
//     proprietary Blue Waters archives, emitting raw logs in the native
//     formats plus a withheld ground truth; and
//   - an experiment harness regenerating every table and figure of the
//     study's evaluation.
//
// Quick start: synthesize a week of production, write it out as the three
// raw archives, and analyze those bytes (the `logdiver generate` and
// `logdiver analyze` commands do the same through files):
//
//	ds, err := logdiver.Generate(logdiver.ScaledGeneratorConfig(7))
//	// handle err
//	var acc, aps, sys bytes.Buffer
//	err = errors.Join(ds.WriteAccounting(&acc), ds.WriteApsys(&aps), ds.WriteErrorLog(&sys))
//	// handle err
//	res, err := logdiver.Analyze(logdiver.Archives{Accounting: &acc, Apsys: &aps, Syslog: &sys},
//		ds.Topology, logdiver.Options{})
//	// handle err
//	b := res.Agg.Outcomes()
//	fmt.Printf("system-failure fraction: %.2f%%\n", 100*b.SystemFailureFraction())
package logdiver

import (
	"logdiver/internal/core"
	"logdiver/internal/correlate"
	"logdiver/internal/gen"
	"logdiver/internal/machine"
	"logdiver/internal/metrics"
	"logdiver/internal/parse"
	"logdiver/internal/report"
)

// Re-exported types. Aliases keep the public surface in one place while the
// implementations live in focused internal packages.
type (
	// MachineConfig sizes the modeled Cray system.
	MachineConfig = machine.Config
	// Topology describes every node of the machine.
	Topology = machine.Topology
	// NodeClass distinguishes XE (CPU), XK (hybrid) and service nodes.
	NodeClass = machine.NodeClass

	// GeneratorConfig configures the field-data synthesizer.
	GeneratorConfig = gen.Config
	// Dataset is a synthesized archive plus ground truth.
	Dataset = gen.Dataset
	// Truth is the per-run ground-truth record.
	Truth = gen.Truth

	// Archives bundles the three raw log streams.
	Archives = core.Archives
	// Options tunes the analysis pipeline.
	Options = core.Options
	// Result is the pipeline output.
	Result = core.Result
	// ParseMode selects the malformed-input policy (Options.ParseMode).
	ParseMode = parse.Mode
	// ParseError is the typed malformed-line error strict parsing surfaces,
	// carrying the archive name, line number and failure kind.
	ParseError = parse.Error

	// AttributedRun is an application run with its outcome attribution.
	AttributedRun = correlate.AttributedRun

	// OutcomeBreakdown aggregates runs by outcome.
	OutcomeBreakdown = metrics.OutcomeBreakdown
	// ScaleBucket is one point of a failure-probability curve.
	ScaleBucket = metrics.ScaleBucket

	// Table is a rendered experiment artifact.
	Table = report.Table
)

// Node classes.
const (
	ClassXE = machine.ClassXE
	ClassXK = machine.ClassXK
)

// OutcomeSystemFailure is the outcome of a run that died of a system
// problem: the population the study's headline numbers count.
const OutcomeSystemFailure = correlate.OutcomeSystemFailure

// ParseStrict fails Analyze on the first malformed line with a *ParseError
// naming archive and line. The Options zero value is lenient: malformed
// lines are skipped and accounted in Result.Parse.
const ParseStrict = parse.Strict

// ParseModeFromString parses the -parse-mode flag vocabulary ("lenient",
// "strict"; the empty string means lenient).
func ParseModeFromString(s string) (ParseMode, error) { return parse.ModeFromString(s) }

// SmallMachine returns a 1,536-node configuration for tests and smoke runs.
func SmallMachine() MachineConfig { return machine.Small() }

// ScaledGeneratorConfig returns the default configuration scaled to the
// given number of production days.
func ScaledGeneratorConfig(days int) GeneratorConfig { return gen.Scaled(days) }

// SmallGeneratorConfig returns a configuration for the small 1,536-node
// machine with a workload rescaled to fit it: the setup used by the
// serving smoke tests and CI, where a few days generate and analyze in
// seconds.
func SmallGeneratorConfig(days int) GeneratorConfig { return gen.Small(days) }

// Generate synthesizes a dataset: workload, fault timeline, logs and truth.
func Generate(cfg GeneratorConfig) (*Dataset, error) { return gen.Generate(cfg) }

// Analyze runs the pipeline over raw text archives.
func Analyze(a Archives, top *Topology, opts Options) (*Result, error) {
	return core.Analyze(a, top, opts)
}

// GeometricBuckets returns power-of-two bucket edges up to max.
func GeometricBuckets(max int) []int { return metrics.GeometricBuckets(max) }
