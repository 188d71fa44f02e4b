package experiments

import (
	"fmt"
	"time"

	"logdiver/internal/avail"
	"logdiver/internal/checkpoint"
	"logdiver/internal/core"
	"logdiver/internal/correlate"
	"logdiver/internal/machine"
	"logdiver/internal/metrics"
	"logdiver/internal/report"
	"logdiver/internal/stats"
)

// E11Energy prices the work lost to system failures, the energy-cost point
// of the paper's first lesson.
func E11Energy(res *core.Result) *report.Table {
	model := metrics.DefaultEnergyModel()
	t := &report.Table{
		ID:      "E11",
		Title:   "Energy cost of system-failed work",
		Columns: []string{"population", "node-hours lost", "energy lost (MWh)"},
	}
	classes := []struct {
		name  string
		class machine.NodeClass
		watts float64
	}{
		{"XE (CPU)", machine.ClassXE, model.WattsPerXENode},
		{"XK (hybrid)", machine.ClassXK, model.WattsPerXKNode},
	}
	var nh, wh [2]float64 // per class: node-hours and watt-hours lost
	for i := range res.Runs {
		r := &res.Runs[i]
		if r.Outcome != correlate.OutcomeSystemFailure {
			continue
		}
		for k, c := range classes {
			if r.Class == c.class {
				nh[k] += r.NodeHours()
				wh[k] += r.NodeHours() * c.watts
			}
		}
	}
	var totalNH, totalMWh float64
	for k, c := range classes {
		mwh := wh[k] / 1e6
		totalNH += nh[k]
		totalMWh += mwh
		t.AddRow(c.name, report.F1(nh[k]), fmt.Sprintf("%.2f", mwh))
	}
	t.AddRow("total", report.F1(totalNH), fmt.Sprintf("%.2f", totalMWh))
	t.Notes = append(t.Notes,
		fmt.Sprintf("model: %.0f W per XE node, %.0f W per XK node at load",
			model.WattsPerXENode, model.WattsPerXKNode))
	return t
}

// E12InterruptDist fits the machine-wide time-between-system-interrupts
// distribution, the burstiness analysis of a field study's error section.
func E12InterruptDist(res *core.Result) (*report.Table, error) {
	t := &report.Table{
		ID:      "E12",
		Title:   "Time between system-caused application failures (machine-wide)",
		Columns: []string{"population", "interrupts", "mean gap (h)", "median (h)", "weibull shape", "weibull scale (h)", "KS exp", "KS weibull", "better fit"},
	}
	for _, c := range []struct {
		name  string
		class machine.NodeClass
	}{
		{"all runs", 0},
		{"XE runs", machine.ClassXE},
		{"XK runs", machine.ClassXK},
	} {
		gaps, interrupts := metrics.InterruptGaps(res.Runs, c.class)
		if len(gaps) < 5 {
			t.AddRow(c.name, report.Count(interrupts), "n/a", "n/a", "n/a", "n/a", "n/a", "n/a", "n/a")
			continue
		}
		sum, err := stats.Summarize(gaps)
		if err != nil {
			return nil, err
		}
		expFit, err := stats.FitExponential(gaps)
		if err != nil {
			return nil, err
		}
		wb, err := stats.FitWeibull(gaps)
		if err != nil {
			return nil, err
		}
		dExp, err := stats.KSStatistic(gaps, stats.ExpCDF(expFit.Rate))
		if err != nil {
			return nil, err
		}
		dWb, err := stats.KSStatistic(gaps, stats.WeibullCDF(wb.Shape, wb.Scale))
		if err != nil {
			return nil, err
		}
		better := "exponential"
		if dWb < dExp {
			better = "weibull"
		}
		t.AddRow(c.name, report.Count(interrupts), report.F3(sum.Mean), report.F3(sum.Median),
			report.F3(wb.Shape), report.F3(wb.Scale), report.F3(dExp), report.F3(dWb), better)
	}
	t.Notes = append(t.Notes,
		"weibull shape < 1 indicates bursty interrupts (clustered failures); 1 = memoryless",
		"KS columns: Kolmogorov-Smirnov distance of each fitted family (smaller fits better)")
	return t, nil
}

// E13Checkpoint derives the checkpoint policy the measured MTTI implies at
// each application scale: the Young/Daly optimal intervals and the modeled
// efficiency, versus running unprotected.
func E13Checkpoint(res *core.Result) (*report.Table, error) {
	bounds := []int{1, 4096, 16384, 22637}
	buckets, err := res.Agg.MTTI(bounds, 0)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		ID:      "E13",
		Title:   "Implied checkpoint policy by application scale",
		Columns: []string{"nodes", "MTTI (h)", "Daly interval (h)", "efficiency", "unprotected 24h survival"},
	}
	const (
		checkpointCostHours = 0.12 // ~7 minutes to dump a petascale state
		restartCostHours    = 0.20
		referenceRunHours   = 24.0
	)
	for _, b := range buckets {
		label := fmt.Sprintf("%d-%d", b.Lo, b.Hi-1)
		if b.Interrupts == 0 || b.MTTIHours <= 0 {
			t.AddRow(label, "n/a", "n/a", "n/a", "n/a")
			continue
		}
		plan, err := checkpoint.BuildPlan(checkpoint.Params{
			MTTIHours:       b.MTTIHours,
			CheckpointHours: checkpointCostHours,
			RestartHours:    restartCostHours,
		}, referenceRunHours)
		if err != nil {
			return nil, err
		}
		t.AddRow(label, report.F1(b.MTTIHours), report.F3(plan.DalyHours),
			report.Pct(plan.EfficiencyAtDaly), report.Pct(plan.EfficiencyUnprotected))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("assumes %.0f-minute checkpoints, %.0f-minute restarts, %v-hour reference runs",
			checkpointCostHours*60, restartCostHours*60, referenceRunHours))
	return t, nil
}

// E15Availability reconstructs node availability from the error log: node
// failure counts, repair times and aggregate machine availability — the
// system-side reliability view that complements the application-side
// outcome tables.
func E15Availability(res *core.Result, top *machine.Topology) (*report.Table, error) {
	if res.Start.IsZero() {
		return nil, fmt.Errorf("experiments: empty result has no availability window")
	}
	downs, err := avail.Reconstruct(res.Events, res.End)
	if err != nil {
		return nil, err
	}
	nodes := top.NumXE() + top.NumXK()
	sum, err := avail.Summarize(downs, nodes, res.Start, res.End)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		ID:      "E15",
		Title:   "Node availability (reconstructed from death/recovery records)",
		Columns: []string{"measure", "value"},
	}
	t.AddRow("compute nodes", report.Count(sum.Nodes))
	t.AddRow("node failures", report.Count(sum.Failures))
	t.AddRow("unresolved at window end", report.Count(sum.OpenFailures))
	t.AddRow("distinct nodes affected", report.Count(sum.DistinctNodes))
	t.AddRow("total downtime (node-hours)", report.F1(sum.DowntimeHours))
	t.AddRow("mean time to repair (h)", report.F3(sum.MTTRHours))
	t.AddRow("node MTBF (node-hours)", report.F1(sum.MTBFNodeHours))
	t.AddRow("machine availability", fmt.Sprintf("%.4f%%", 100*sum.Availability))
	for i, c := range avail.CausesOf(downs) {
		if i >= 3 {
			break
		}
		t.AddRow("top cause #"+fmt.Sprint(i+1), fmt.Sprintf("%s (%s)", c.Cause, report.Count(c.Count)))
	}
	if times := avail.RepairTimes(downs); len(times) >= 2 {
		if fit, err := stats.FitLognormal(times); err == nil {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"repair times fit lognormal(mu=%.2f, sigma=%.2f): median %.1f h",
				fit.Mu, fit.Sigma, fit.Median()))
		}
	}
	return t, nil
}

// A3Coalesce sweeps the tupling window and reports the episode counts each
// setting produces — the sensitivity of every downstream rate metric to
// the preprocessing design choice.
func A3Coalesce(res *core.Result, windows []time.Duration) *report.Table {
	if len(windows) == 0 {
		windows = []time.Duration{
			0, time.Minute, 5 * time.Minute, 20 * time.Minute, 2 * time.Hour,
		}
	}
	t := &report.Table{
		ID:      "A3",
		Title:   "Ablation: tupling window vs error-episode count",
		Columns: []string{"window", "tuples", "groups", "reduction vs raw"},
	}
	for _, w := range windows {
		tuples, groups, s := coalesced(res, w)
		red := "n/a"
		if len(groups) > 0 {
			red = fmt.Sprintf("%.1fx", s.ReductionFactor())
		}
		label := w.String()
		if w == 0 {
			label = "none"
		}
		t.AddRow(label, report.Count(len(tuples)), report.Count(len(groups)), red)
	}
	t.Notes = append(t.Notes, "default: 5m; without tupling one fault storm counts as thousands of causes")
	return t
}
