// GPU reliability: reproduce the paper's third lesson — hybrid (XK)
// application resiliency is impaired by inadequate error detection. The
// synthesizer knows the true cause of every run's death; comparing the
// pipeline's attribution against that withheld truth exposes how many GPU
// failures die silently (no actionable log evidence), in contrast to CPU
// failures which are nearly always logged.
package main

import (
	"flag"
	"fmt"
	"os"

	"logdiver"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gpu-reliability:", err)
		os.Exit(1)
	}
}

func run() error {
	days := flag.Int("days", 30, "production days to synthesize")
	flag.Parse()

	ds, err := logdiver.Generate(logdiver.ScaledGeneratorConfig(*days))
	if err != nil {
		return err
	}
	res, err := logdiver.AnalyzeDataset(ds, logdiver.Options{})
	if err != nil {
		return err
	}
	truth := logdiver.TrueSystemFailures(ds)

	fmt.Printf("%d runs analyzed; comparing attribution against withheld ground truth\n\n", len(res.Runs))
	fmt.Printf("%-26s %12s %12s %10s %10s\n",
		"population", "true sysfail", "attributed", "coverage", "precision")

	populations := []struct {
		name    string
		class   logdiver.NodeClass
		minSize int
	}{
		{"XE, all scales", logdiver.ClassXE, 0},
		{"XK, all scales", logdiver.ClassXK, 0},
		{"XE, >= 8192 nodes", logdiver.ClassXE, 8192},
		{"XK, >= 3000 nodes", logdiver.ClassXK, 3000},
	}
	for _, p := range populations {
		var subset []logdiver.AttributedRun
		for _, r := range res.Runs {
			if r.Class == p.class && r.NumNodes() >= p.minSize {
				subset = append(subset, r)
			}
		}
		cov := logdiver.DetectionCoverage(subset, truth, p.class)
		fmt.Printf("%-26s %12d %12d %9.1f%% %9.1f%%\n",
			p.name, cov.TrueSystem, cov.Attributed, 100*cov.Rate(), 100*cov.Precision())
	}

	// Count the silent deaths directly from truth: system-caused failures
	// whose fault left no log evidence at all.
	var xkSystem, xkSilent int
	for apid, tr := range ds.Truth {
		_ = apid
		if tr.Outcome != logdiver.OutcomeSystemFailure {
			continue
		}
		if tr.Category.Group().String() == "GPU" {
			xkSystem++
			if !tr.Detected {
				xkSilent++
			}
		}
	}
	if xkSystem > 0 {
		fmt.Printf("\nGPU-caused failures: %d, of which %d (%.0f%%) left no log evidence.\n",
			xkSystem, xkSilent, 100*float64(xkSilent)/float64(xkSystem))
		fmt.Println("These silent deaths look like user bugs to any log-based tool —")
		fmt.Println("the detection gap the paper identifies on hybrid nodes.")
	}
	return nil
}
