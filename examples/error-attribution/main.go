// Error attribution: drill into individual failed runs and show the
// evidence chain the pipeline used — the run's placement and lifetime, the
// qualifying error event that explains its death, and how far from the
// death instant the evidence was logged. This is the per-run view behind
// the aggregate tables.
package main

import (
	"flag"
	"fmt"
	"os"

	"logdiver"
	"logdiver/internal/coalesce"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "error-attribution:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		days = flag.Int("days", 5, "production days to synthesize")
		show = flag.Int("show", 8, "how many attributed failures to display")
	)
	flag.Parse()

	cfg := logdiver.ScaledGeneratorConfig(*days)
	cfg.Machine = logdiver.SmallMachine()
	cfg.Workload.JobsPerDay = 400
	cfg.Workload.XECapabilitySizes = []int{256, 512, 900}
	cfg.Workload.XKCapabilitySizes = []int{64, 160}
	cfg.Workload.FullScaleKneeXE = 512
	cfg.Workload.FullScaleKneeXK = 160
	cfg.Workload.SmallSizeMax = 96

	ds, err := logdiver.Generate(cfg)
	if err != nil {
		return err
	}
	res, err := logdiver.AnalyzeDataset(ds, logdiver.Options{})
	if err != nil {
		return err
	}

	shown := 0
	for _, r := range res.Runs {
		if r.Outcome != logdiver.OutcomeSystemFailure || !r.HasEvidence {
			continue
		}
		shown++
		fmt.Printf("apid %d  (%s, job %s, user %s)\n", r.ApID, r.Cmd, r.JobID, r.User)
		fmt.Printf("  placement : %d %s nodes\n", r.NumNodes(), r.Class)
		fmt.Printf("  lifetime  : %s -> %s (%s)\n",
			r.Start.Format("2006-01-02 15:04:05"),
			r.End.Format("15:04:05"), r.Duration().Round(1e9))
		fmt.Printf("  exit      : code=%d signal=%d\n", r.ExitCode, r.Signal)
		fmt.Printf("  cause     : %s (%s)\n", r.Cause, r.Cause.Group())
		delta := r.Evidence.Time.Sub(r.End).Round(1e9)
		side := "before"
		if delta > 0 {
			side = "after"
		} else {
			delta = -delta
		}
		where := r.Evidence.Cname
		if r.Evidence.IsSystemWide() {
			where = "machine-wide"
		}
		fmt.Printf("  evidence  : [%s] %q\n", where, r.Evidence.Message)
		fmt.Printf("              logged %s %s the application died\n\n", delta, side)

		// Cross-check against the withheld ground truth.
		truth := ds.Truth[r.ApID]
		if truth.Outcome != logdiver.OutcomeSystemFailure {
			fmt.Printf("  NOTE: ground truth says %s — a coincidental event misled the join\n\n", truth.Outcome)
		}
		if shown >= *show {
			break
		}
	}
	if shown == 0 {
		return fmt.Errorf("no attributed system failures in %d days; increase -days", *days)
	}

	// Summarize the machine-level view: coalesce the deduplicated events
	// into episodes and machine-level groups.
	_, _, stats := coalesce.Pipeline(res.Events, res.RawEvents, coalesce.DefaultTemporalWindow, coalesce.DefaultSpatialWindow)
	fmt.Printf("coalescing: %s\n", stats)
	return nil
}
