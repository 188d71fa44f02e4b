package experiments

import (
	"cmp"
	"slices"
	"sort"

	"logdiver/internal/core"
	"logdiver/internal/correlate"
	"logdiver/internal/report"
	"logdiver/internal/stats"
)

// E16Survival estimates, per scale class, the probability an application
// survives system interrupts for t hours of execution, using the
// Kaplan-Meier estimator: a run killed by the system at time t is an
// event; a run that ends for any other reason (completion, user failure,
// walltime) is censored at its duration. This is the survival view of the
// E4/E5 probability curves, and it uses the censoring structure properly:
// short successful runs say little about long-horizon survival, and KM
// accounts for that.
func E16Survival(res *core.Result) (*report.Table, error) {
	classes := []struct {
		name   string
		lo, hi int
	}{
		{"small (1-63 nodes)", 1, 64},
		{"mid (64-4095 nodes)", 64, 4096},
		{"large (4096-16383 nodes)", 4096, 16384},
		{"full scale (>=16384 nodes)", 16384, 1 << 30},
	}
	horizons := []float64{1, 6, 12, 24}

	t := &report.Table{
		ID:    "E16",
		Title: "Application survival under system interrupts (Kaplan-Meier)",
		Columns: []string{"scale", "runs", "interrupts",
			"S(1h)", "S(6h)", "S(12h)", "S(24h)"},
	}
	for _, c := range classes {
		var times []float64
		var events []bool
		var interrupts int
		for _, r := range res.Runs {
			n := r.NumNodes()
			if n < c.lo || n >= c.hi {
				continue
			}
			times = append(times, r.Duration().Hours())
			isEvent := r.Outcome == correlate.OutcomeSystemFailure
			events = append(events, isEvent)
			if isEvent {
				interrupts++
			}
		}
		if len(times) == 0 {
			continue
		}
		km, err := stats.KaplanMeier(times, events)
		if err != nil {
			return nil, err
		}
		row := []any{c.name, report.Count(len(times)), report.Count(interrupts)}
		for _, h := range horizons {
			row = append(row, survivalAt(km, h))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"S(t): probability of running t hours without a system interrupt; censored by natural run end",
		"n/a: no run in the class was observed (event or censoring) beyond that horizon",
	)
	return t, nil
}

// E17Applications breaks outcomes down by application executable: which
// codes run most, which burn the most node-hours, and how their
// system-failure exposure differs — the per-application view of the study.
func E17Applications(res *core.Result) *report.Table {
	type agg struct {
		runs      int
		nodeHours float64
		sysFails  int
		userFails int
	}
	byCmd := make(map[string]*agg)
	for _, r := range res.Runs {
		a := byCmd[r.Cmd]
		if a == nil {
			a = &agg{}
			byCmd[r.Cmd] = a
		}
		a.runs++
		a.nodeHours += r.NodeHours()
		switch r.Outcome {
		case correlate.OutcomeSystemFailure:
			a.sysFails++
		case correlate.OutcomeUserFailure:
			a.userFails++
		default:
			// Successes and walltime terminations contribute exposure
			// (runs, node-hours) but are not failures.
		}
	}
	cmds := make([]string, 0, len(byCmd))
	for c := range byCmd {
		cmds = append(cmds, c)
	}
	// Most node-hours first; the command name breaks ties, since map order is
	// random and the table keeps only the first 12 rows.
	slices.SortFunc(cmds, func(a, b string) int {
		return cmp.Or(cmp.Compare(byCmd[b].nodeHours, byCmd[a].nodeHours), cmp.Compare(a, b))
	})
	t := &report.Table{
		ID:      "E17",
		Title:   "Per-application outcomes (top codes by node-hours)",
		Columns: []string{"application", "runs", "node-hours", "P(system fail)", "P(user fail)"},
	}
	for i, c := range cmds {
		if i >= 12 {
			break
		}
		a := byCmd[c]
		t.AddRow(c, report.Count(a.runs), report.F1(a.nodeHours),
			report.F3(float64(a.sysFails)/float64(a.runs)),
			report.F3(float64(a.userFails)/float64(a.runs)))
	}
	return t
}

// survivalAt reads the KM step function at time t. Points are time-sorted.
// Beyond the last observation the estimate is unsupported: report n/a.
func survivalAt(km []stats.KMPoint, t float64) string {
	if len(km) == 0 {
		return "n/a"
	}
	i := sort.Search(len(km), func(k int) bool { return km[k].Time > t })
	if i == 0 {
		return report.F3(1.0) // no event yet by time t
	}
	return report.F3(km[i-1].Survival)
}
