// Package gen synthesizes Blue Waters-style field data: a batch workload
// (jobs and the application runs inside them), the background error
// processes of a petascale Cray (machine checks, GPU errors, Gemini link
// failures, Lustre outages, blade faults), and the interaction between the
// two — which runs die, when, and whether the death leaves log evidence.
//
// The synthesizer plays the role of the proprietary Blue Waters archives in
// the original study. It emits raw text logs in the native formats (Torque
// accounting, ALPS apsys, syslog) that the analysis pipeline parses exactly
// as LogDiver parsed the real archives, plus a ground-truth record per run
// (never shown to the pipeline) against which attribution accuracy is
// measured.
package gen

import (
	"fmt"
	"time"

	"logdiver/internal/machine"
)

// Rates collects the stochastic process parameters. All rates are per hour.
// The defaults are calibrated (see calibration_test.go) so that the analysis
// pipeline, run over the synthesized logs, measures the paper's anchored
// numbers: ~1.53% of runs failing for system reasons, ~9% of node-hours
// consumed by those runs, and the scale curves 0.008→0.162 (XE, 10k→22k
// nodes) and 0.02→0.129 (XK, 2k→4224 nodes).
type Rates struct {
	// NodeFatalPerNodeHour is the rate of app-killing node-local faults
	// (uncorrected memory, CPU machine check, kernel panic, heartbeat
	// loss) per compute node per hour. 1.5e-6 corresponds to roughly one
	// node death per day machine-wide on a 27k-node system.
	NodeFatalPerNodeHour float64
	// NodeBenignPerNodeHour is the rate of benign logged noise (corrected
	// memory errors, Lustre slow-reply warnings) per node-hour. Benign
	// events arrive in bursts (see BurstMax) and exercise coalescing.
	NodeBenignPerNodeHour float64
	// BurstMax bounds the burst size of a benign noise episode.
	BurstMax int
	// GPUFatalPerNodeHour is the rate of fatal GPU faults (double-bit
	// ECC, bus drop) per XK node per hour.
	GPUFatalPerNodeHour float64
	// GPUDetectProb is the probability a fatal GPU fault leaves log
	// evidence. The hybrid detection gap of the paper's lesson 3 is the
	// complement of this value.
	GPUDetectProb float64
	// LinkFailPerHour is the machine-wide rate of Gemini link failures.
	LinkFailPerHour float64
	// FSOutagePerHour is the machine-wide rate of Lustre outages.
	FSOutagePerHour float64
	// BladeFailPerHour is the machine-wide rate of blade/power faults
	// (each takes down the blade's four nodes).
	BladeFailPerHour float64
	// FSKillBase is the probability a Lustre outage kills a running
	// application regardless of its size (any app doing I/O in the
	// window); FSKillScale adds a component proportional to n/N.
	FSKillBase  float64
	FSKillScale float64
	// HSNKillCoef and HSNKillGamma shape the probability that a link
	// failure (and the rerouting quiesce it triggers) kills a running
	// application: p = HSNKillCoef * (n/N)^HSNKillGamma. Tightly coupled
	// full-machine applications are far more vulnerable to quiesce than
	// small ones.
	HSNKillCoef  float64
	HSNKillGamma float64
	// LaunchFailProb is the probability a run dies at launch from a
	// system-software (ALPS) error: placement failure, apinit protocol
	// timeout. These failures are logged (SW_ALPS) and system-caused, and
	// being per-launch they weigh on the numerous small runs.
	LaunchFailProb float64
	// UserFailureProb is the probability a run fails for user reasons
	// (bugs, bad input, aborts) absent any system event.
	UserFailureProb float64
	// WalltimeProb is the probability a run overruns the job walltime
	// and is killed by the batch system.
	WalltimeProb float64
	// DupProb is the probability a log line is duplicated by the
	// forwarding chain; MalformedPerDay is the rate of corrupted lines.
	DupProb         float64
	MalformedPerDay float64
}

// DefaultRates returns the calibrated rates.
func DefaultRates() Rates {
	return Rates{
		NodeFatalPerNodeHour:  0.8e-6,
		NodeBenignPerNodeHour: 6e-5,
		BurstMax:              40,
		GPUFatalPerNodeHour:   1.0e-5,
		GPUDetectProb:         0.55,
		LinkFailPerHour:       0.020,
		FSOutagePerHour:       0.045,
		BladeFailPerHour:      0.005,
		FSKillBase:            0.62,
		FSKillScale:           0.6,
		HSNKillCoef:           0.7,
		HSNKillGamma:          5.0,
		LaunchFailProb:        0.002,
		UserFailureProb:       0.22,
		WalltimeProb:          0.025,
		DupProb:               0.01,
		MalformedPerDay:       2,
	}
}

// Workload collects the workload-shape parameters. The workload has two
// components, mirroring the measured system's mission profile:
//
//   - an ordinary stream of small-to-mid jobs (the count-dominant
//     population), and
//   - capability campaigns: rare, long, full-scale jobs that dominate
//     node-hours. Blue Waters was a capability machine; full-scale runs
//     carried a large share of the delivered node-hours, which is why runs
//     that fail for system reasons (disproportionately the big ones) can
//     consume ~9% of all node-hours while being only ~1.5% of run counts.
type Workload struct {
	// JobsPerDay is the mean arrival rate of ordinary batch jobs.
	JobsPerDay float64
	// MeanRunsPerJob is the mean number of apruns per job (geometric,
	// at least 1).
	MeanRunsPerJob float64
	// XKJobFraction is the fraction of ordinary jobs targeting the
	// hybrid (XK) partition.
	XKJobFraction float64
	// XECapabilityJobsPerDay and XKCapabilityJobsPerDay are the arrival
	// rates of capability campaigns on each partition.
	XECapabilityJobsPerDay float64
	XKCapabilityJobsPerDay float64
	// CapabilityRunsPerJob is the mean apruns per capability job.
	CapabilityRunsPerJob float64
	// XECapabilitySizes and XKCapabilitySizes are the node counts used
	// by capability jobs (the paper's anchor points among them).
	XECapabilitySizes []int
	XKCapabilitySizes []int
	// SmallSizeMax bounds the size distribution of ordinary jobs.
	SmallSizeMax int
	// MedianRunMinutes and SigmaRun parameterize the lognormal duration
	// of ordinary runs.
	MedianRunMinutes float64
	SigmaRun         float64
	// MedianCapabilityMinutes and SigmaCapability parameterize capability
	// run durations; MedianMidScaleMinutes applies to capability sizes
	// below the full-scale knee (routine 8-13k production runs are much
	// shorter than hero campaigns).
	MedianCapabilityMinutes float64
	SigmaCapability         float64
	MedianMidScaleMinutes   float64
	// MedianMidScaleXKMinutes is the mid-scale duration median for the
	// hybrid partition (XK mid-scale production runs are longer than XE
	// ones relative to their partition size).
	MedianMidScaleXKMinutes float64
	// FullScaleKneeXE and FullScaleKneeXK split mid-scale from
	// full-scale capability sizes.
	FullScaleKneeXE int
	FullScaleKneeXK int
}

// DefaultWorkload returns the workload used in the experiments.
func DefaultWorkload() Workload {
	return Workload{
		JobsPerDay:              2400,
		MeanRunsPerJob:          3.0,
		XKJobFraction:           0.16,
		XECapabilityJobsPerDay:  3.0,
		XKCapabilityJobsPerDay:  0.7,
		CapabilityRunsPerJob:    6.0,
		XECapabilitySizes:       []int{8192, 10000, 13000, 16384, 19000, 22000},
		XKCapabilitySizes:       []int{1000, 2000, 3000, 4224},
		SmallSizeMax:            4096,
		MedianRunMinutes:        14,
		SigmaRun:                1.1,
		MedianCapabilityMinutes: 200,
		SigmaCapability:         0.5,
		MedianMidScaleMinutes:   12,
		MedianMidScaleXKMinutes: 45,
		FullScaleKneeXE:         16384,
		FullScaleKneeXK:         3000,
	}
}

// Config is the complete synthesizer configuration.
type Config struct {
	// Machine configures the topology. Defaults to machine.BlueWaters().
	Machine machine.Config
	// Start is the first production instant; Days the span length.
	Start time.Time
	Days  int
	// Seed drives all randomness; a fixed seed reproduces the archive
	// byte for byte.
	Seed     int64
	Rates    Rates
	Workload Workload
	// Parallelism bounds the worker count of the log-emission stage (the
	// Write* methods of Dataset, which format archives in parallel blocks
	// and write them in order). Values <= 0 select runtime.GOMAXPROCS(0);
	// 1 forces sequential emission. Output bytes are identical either way:
	// all randomness is drawn on the emitting goroutine before fan-out.
	Parallelism int
	// ApIDBase offsets every generated aprun id: the first run gets
	// ApIDBase+1. Fleet fixtures give each machine (and each append
	// window) a disjoint base so run identifiers stay unique fleet-wide.
	ApIDBase uint64
	// JobIDBase likewise offsets the batch job id sequence (job ids render
	// as 1000000+JobIDBase+n). Zero keeps the historical single-machine
	// numbering.
	JobIDBase int
}

// Default returns the full-span Blue Waters-shaped configuration: 518
// production days on the full topology. This produces on the order of
// 1.6M jobs / 5M runs and is intended for the headline experiments.
func Default() Config {
	return Config{
		Machine:  machine.BlueWaters(),
		Start:    time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC),
		Days:     518,
		Seed:     1,
		Rates:    DefaultRates(),
		Workload: DefaultWorkload(),
	}
}

// Scaled returns the default configuration with the time span scaled to the
// given number of days (workload and error rates unchanged: the statistics
// simply accumulate over fewer days).
func Scaled(days int) Config {
	cfg := Default()
	cfg.Days = days
	return cfg
}

// Small returns a configuration sized for smoke tests, CI and the
// benchmark: the 1,536-node small machine with a workload rescaled to fit
// it (`logdiver generate -machine small`). A few
// days generate and analyze in seconds while still exercising the full
// pipeline, including capability-scale runs at the machine's knee.
func Small(days int) Config {
	cfg := Scaled(days)
	cfg.Machine = machine.Small()
	cfg.Workload.JobsPerDay = 400
	cfg.Workload.XECapabilitySizes = []int{256, 512, 900}
	cfg.Workload.XKCapabilitySizes = []int{64, 160}
	cfg.Workload.FullScaleKneeXE = 512
	cfg.Workload.FullScaleKneeXK = 160
	cfg.Workload.SmallSizeMax = 96
	return cfg
}

// Validate checks the configuration for obvious inconsistencies.
func (c Config) Validate() error {
	if c.Days <= 0 {
		return fmt.Errorf("gen: Days = %d, want > 0", c.Days)
	}
	if c.Start.IsZero() {
		return fmt.Errorf("gen: Start is zero")
	}
	if c.Workload.JobsPerDay <= 0 {
		return fmt.Errorf("gen: JobsPerDay = %v, want > 0", c.Workload.JobsPerDay)
	}
	if c.Workload.MeanRunsPerJob < 1 {
		return fmt.Errorf("gen: MeanRunsPerJob = %v, want >= 1", c.Workload.MeanRunsPerJob)
	}
	if f := c.Workload.XKJobFraction; f < 0 || f > 1 {
		return fmt.Errorf("gen: XKJobFraction = %v outside [0,1]", f)
	}
	if c.Workload.XECapabilityJobsPerDay < 0 || c.Workload.XKCapabilityJobsPerDay < 0 {
		return fmt.Errorf("gen: capability job rates must be non-negative")
	}
	if c.Workload.CapabilityRunsPerJob < 1 {
		return fmt.Errorf("gen: CapabilityRunsPerJob = %v, want >= 1", c.Workload.CapabilityRunsPerJob)
	}
	if c.Workload.SmallSizeMax < 1 {
		return fmt.Errorf("gen: SmallSizeMax = %d, want >= 1", c.Workload.SmallSizeMax)
	}
	if len(c.Workload.XECapabilitySizes) == 0 || len(c.Workload.XKCapabilitySizes) == 0 {
		return fmt.Errorf("gen: capability size lists must be non-empty")
	}
	if p := c.Rates.GPUDetectProb; p < 0 || p > 1 {
		return fmt.Errorf("gen: GPUDetectProb = %v outside [0,1]", p)
	}
	if p := c.Rates.UserFailureProb; p < 0 || p > 1 {
		return fmt.Errorf("gen: UserFailureProb = %v outside [0,1]", p)
	}
	return nil
}
