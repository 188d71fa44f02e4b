package logdiver_test

import (
	"bytes"
	"errors"
	"fmt"

	"logdiver"
)

// The quick start of the README and the package documentation. It has no
// output to check, so go test compiles it without running it: an API change
// that breaks the snippet breaks the build.
func Example() {
	// Synthesize a week of Blue Waters-style production...
	ds, err := logdiver.Generate(logdiver.ScaledGeneratorConfig(7))
	if err != nil {
		panic(err)
	}

	// ...write its accounting, ALPS and syslog archives...
	var acc, aps, sys bytes.Buffer
	err = errors.Join(ds.WriteAccounting(&acc), ds.WriteApsys(&aps), ds.WriteErrorLog(&sys))
	if err != nil {
		panic(err)
	}

	// ...run the LogDiver pipeline over them...
	res, err := logdiver.Analyze(logdiver.Archives{Accounting: &acc, Apsys: &aps, Syslog: &sys},
		ds.Topology, logdiver.Options{})
	if err != nil {
		panic(err)
	}

	// ...and read the headline numbers.
	b := res.Agg.Outcomes()
	fmt.Printf("system-failure fraction: %.2f%%\n", 100*b.SystemFailureFraction())
	fmt.Printf("node-hours lost to system failures: %.2f%%\n", 100*b.SystemNodeHoursFraction())
}

// A Result carries the exact aggregate of its runs; the headline tables
// render from it.
func ExampleResult() {
	cfg := logdiver.ScaledGeneratorConfig(1)
	cfg.Machine = logdiver.SmallMachine()
	cfg.Workload.JobsPerDay = 50
	cfg.Workload.XECapabilitySizes = []int{256}
	cfg.Workload.XKCapabilitySizes = []int{64}
	cfg.Workload.SmallSizeMax = 64
	ds, err := logdiver.Generate(cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	var acc, aps, sys bytes.Buffer
	if err := errors.Join(ds.WriteAccounting(&acc), ds.WriteApsys(&aps), ds.WriteErrorLog(&sys)); err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := logdiver.Analyze(logdiver.Archives{Accounting: &acc, Apsys: &aps, Syslog: &sys}, ds.Topology, logdiver.Options{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	b := res.Agg.Outcomes()
	fmt.Println(b.Total == len(res.Runs) && b.Total > 0)
	// Output: true
}
