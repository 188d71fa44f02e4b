// Package experiments regenerates every evaluation artifact of the study
// from a pipeline result:
//
//	E1  workload summary                E10 coalescing effectiveness
//	E2  outcome breakdown (anchored)    E11 energy cost of lost work
//	E3  failures by category            E12 interrupt-gap distribution fits
//	E4  P(fail) vs scale, XE (anchored) E13 implied checkpoint policy
//	E5  P(fail) vs scale, XK (anchored) E14 blast radius of machine events
//	E6  workload distributions          E15 node availability / MTTR
//	E7  MTTI by scale                   E16 Kaplan-Meier survival
//	E8  weekly produced vs lost hours   E17 per-application outcomes
//	E9  detection coverage (lesson 3)
//
// plus the methodological ablations: A1 (evidence window), A2 (node-time
// join vs temporal-only baseline) and A3 (tupling window).
package experiments

import (
	"fmt"
	"time"

	"logdiver/internal/alps"
	"logdiver/internal/coalesce"
	"logdiver/internal/core"
	"logdiver/internal/correlate"
	"logdiver/internal/gen"
	"logdiver/internal/interval"
	"logdiver/internal/machine"
	"logdiver/internal/metrics"
	"logdiver/internal/report"
	"logdiver/internal/stats"
)

// Paper anchors: the numbers the abstract states verbatim.
const (
	AnchorSystemFraction = 0.0153
	AnchorLostNodeHours  = 0.09
	AnchorXEProb10k      = 0.008
	AnchorXEProb22k      = 0.162
	AnchorXKProb2k       = 0.020
	AnchorXKProb4224     = 0.129
)

// Probe is a named scale window used to read a curve at an anchor point.
type Probe struct {
	Name   string
	Class  machine.NodeClass
	Lo, Hi int // node count range [Lo, Hi)
	Anchor float64
}

// DefaultProbes returns the four anchor probes from the abstract.
func DefaultProbes() []Probe {
	return []Probe{
		{Name: "XE @ ~10,000 nodes", Class: machine.ClassXE, Lo: 9000, Hi: 11000, Anchor: AnchorXEProb10k},
		{Name: "XE @ ~22,000 nodes", Class: machine.ClassXE, Lo: 19000, Hi: 23000, Anchor: AnchorXEProb22k},
		{Name: "XK @ ~2,000 nodes", Class: machine.ClassXK, Lo: 1800, Hi: 2200, Anchor: AnchorXKProb2k},
		{Name: "XK @ 4,224 nodes", Class: machine.ClassXK, Lo: 4000, Hi: 4300, Anchor: AnchorXKProb4224},
	}
}

// E1Workload characterizes the measured workload (paper-style Table 1).
func E1Workload(res *core.Result) *report.Table {
	t := &report.Table{
		ID:      "E1",
		Title:   "Workload summary",
		Columns: []string{"population", "count", "node-hours", "share of node-hours"},
	}
	var xe, xk int
	var xeNH, xkNH, totalNH float64
	for _, r := range res.Runs {
		nh := r.NodeHours()
		totalNH += nh
		if r.Class == machine.ClassXK {
			xk++
			xkNH += nh
		} else {
			xe++
			xeNH += nh
		}
	}
	share := func(x float64) string {
		if totalNH == 0 {
			return report.Pct(0)
		}
		return report.Pct(x / totalNH)
	}
	t.AddRow("batch jobs", report.Count(res.NumJobs), "", "")
	t.AddRow("application runs", report.Count(len(res.Runs)), report.F1(totalNH), "100.00%")
	t.AddRow("XE (CPU) runs", report.Count(xe), report.F1(xeNH), share(xeNH))
	t.AddRow("XK (hybrid) runs", report.Count(xk), report.F1(xkNH), share(xkNH))
	if !res.Start.IsZero() {
		days := res.End.Sub(res.Start).Hours() / 24
		t.Notes = append(t.Notes, fmt.Sprintf("span: %.1f days (%s to %s)",
			days, res.Start.Format("2006-01-02"), res.End.Format("2006-01-02")))
	}
	return t
}

// E2Outcomes is the headline outcome breakdown (anchored: 1.53% / 9%).
func E2Outcomes(res *core.Result) *report.Table {
	b := res.Agg.Outcomes()
	t := &report.Table{
		ID:      "E2",
		Title:   "Application outcome breakdown",
		Columns: []string{"outcome", "runs", "share of runs", "node-hours", "share of node-hours"},
	}
	for _, o := range correlate.Outcomes() {
		runsShare, nhShare := 0.0, 0.0
		if b.Total > 0 {
			runsShare = float64(b.Counts[o]) / float64(b.Total)
		}
		if b.TotalNodeHours > 0 {
			nhShare = b.NodeHours[o] / b.TotalNodeHours
		}
		t.AddRow(o.String(), report.Count(b.Counts[o]), report.Pct(runsShare),
			report.F1(b.NodeHours[o]), report.Pct(nhShare))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("measured system-failure fraction %s (paper anchor %s)",
			report.Pct(b.SystemFailureFraction()), report.Pct(AnchorSystemFraction)),
		fmt.Sprintf("measured node-hours consumed by system-failed runs %s (paper anchor %s)",
			report.Pct(b.SystemNodeHoursFraction()), report.Pct(AnchorLostNodeHours)),
	)
	return t
}

// E3Categories breaks system failures down by cause (paper-style error
// category table).
func E3Categories(res *core.Result) *report.Table {
	t := &report.Table{
		ID:      "E3",
		Title:   "System-caused failures by error category",
		Columns: []string{"group", "category", "failures", "share", "node-hours lost"},
	}
	cats := res.Agg.Categories()
	var total int
	for _, c := range cats {
		total += c.Failures
	}
	for _, c := range cats {
		share := 0.0
		if total > 0 {
			share = float64(c.Failures) / float64(total)
		}
		t.AddRow(c.Group.String(), c.Category.String(), report.Count(c.Failures),
			report.Pct(share), report.F1(c.NodeHoursLost))
	}
	return t
}

// scalingTable renders a failure-probability-versus-scale curve.
func scalingTable(id, title string, res *core.Result, class machine.NodeClass, maxNodes int, probes []Probe) (*report.Table, error) {
	buckets, err := res.Agg.Scaling(metrics.GeometricBuckets(maxNodes), class)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		ID:      id,
		Title:   title,
		Columns: []string{"nodes", "runs", "system failures", "P(fail)", "95% CI"},
	}
	for _, b := range buckets {
		if b.Runs == 0 {
			continue
		}
		t.AddRow(b.Label(), report.Count(b.Runs), report.Count(b.Failures),
			report.F3(b.Prob.P), fmt.Sprintf("[%s, %s]", report.F3(b.Prob.Lo), report.F3(b.Prob.Hi)))
	}
	for _, p := range probes {
		if p.Class != class {
			continue
		}
		w, err := res.Agg.Scaling([]int{p.Lo, p.Hi}, p.Class)
		if err != nil {
			return nil, err
		}
		if w[0].Runs == 0 {
			t.Notes = append(t.Notes, fmt.Sprintf("%s: no runs in window (dataset too small)", p.Name))
			continue
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s: measured %s over %d runs (paper anchor %s)",
			p.Name, report.F3(w[0].Prob.P), w[0].Runs, report.F3(p.Anchor)))
	}
	return t, nil
}

// E4ScalingXE is the XE failure-probability curve (anchored 0.008 -> 0.162).
func E4ScalingXE(res *core.Result) (*report.Table, error) {
	return scalingTable("E4", "P(system failure) vs scale, XE applications",
		res, machine.ClassXE, 22636, DefaultProbes())
}

// E5ScalingXK is the XK curve (anchored 0.02 -> 0.129).
func E5ScalingXK(res *core.Result) (*report.Table, error) {
	return scalingTable("E5", "P(system failure) vs scale, XK hybrid applications",
		res, machine.ClassXK, 4224, DefaultProbes())
}

// E6Distributions summarizes the run duration and size distributions.
func E6Distributions(res *core.Result) (*report.Table, error) {
	t := &report.Table{
		ID:      "E6",
		Title:   "Workload distributions (durations in hours, sizes in nodes)",
		Columns: []string{"population", "N", "mean", "median", "p95", "p99", "max"},
	}
	add := func(name string, xs []float64) error {
		if len(xs) == 0 {
			return nil
		}
		s, err := stats.Summarize(xs)
		if err != nil {
			return err
		}
		t.AddRow(name, report.Count(s.N), report.F3(s.Mean), report.F3(s.Median),
			report.F3(s.P95), report.F3(s.P99), report.F1(s.Max))
		return nil
	}
	if err := add("XE duration", metrics.DurationSamples(res.Runs, machine.ClassXE)); err != nil {
		return nil, err
	}
	if err := add("XK duration", metrics.DurationSamples(res.Runs, machine.ClassXK)); err != nil {
		return nil, err
	}
	if err := add("XE size", metrics.SizeSamples(res.Runs, machine.ClassXE)); err != nil {
		return nil, err
	}
	if err := add("XK size", metrics.SizeSamples(res.Runs, machine.ClassXK)); err != nil {
		return nil, err
	}
	return t, nil
}

// E7MTTI reports mean time to interrupt by application scale.
func E7MTTI(res *core.Result) (*report.Table, error) {
	bounds := []int{1, 64, 512, 4096, 16384, 22637}
	buckets, err := res.Agg.MTTI(bounds, 0)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		ID:      "E7",
		Title:   "Mean time to interrupt (MTTI) by application scale",
		Columns: []string{"nodes", "runs", "interrupts", "exposure (h)", "MTTI (h)"},
	}
	for _, b := range buckets {
		if b.Runs == 0 {
			continue
		}
		mtti := "n/a"
		if b.Interrupts > 0 {
			mtti = report.F1(b.MTTIHours)
		}
		t.AddRow(fmt.Sprintf("%d-%d", b.Lo, b.Hi-1), report.Count(b.Runs),
			report.Count(b.Interrupts), report.F1(b.ExposureHours), mtti)
	}
	t.Notes = append(t.Notes, "MTTI = summed application wall-clock hours / system interrupts in the bucket")
	return t, nil
}

// E8Timeline reports weekly produced versus lost node-hours.
func E8Timeline(res *core.Result) (*report.Table, error) {
	if res.Start.IsZero() {
		return nil, fmt.Errorf("experiments: empty result has no timeline")
	}
	const week = 7 * 24 * time.Hour
	tl, err := metrics.Timeline(res.Runs, res.Start, res.End, week)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		ID:      "E8",
		Title:   "Weekly produced vs lost node-hours",
		Columns: []string{"week of", "runs", "produced nh", "lost nh", "lost share", "system failures"},
	}
	for _, b := range tl {
		if b.Runs == 0 {
			continue
		}
		share := 0.0
		if b.ProducedNodeHours > 0 {
			share = b.LostNodeHours / b.ProducedNodeHours
		}
		t.AddRow(b.Start.Format("2006-01-02"), report.Count(b.Runs),
			report.F1(b.ProducedNodeHours), report.F1(b.LostNodeHours),
			report.Pct(share), report.Count(b.SystemFailures))
	}
	return t, nil
}

// E9Detection compares error-detection coverage across partitions and scale
// against ground truth: the hybrid detection gap of lesson 3.
func E9Detection(res *core.Result, truth map[uint64]gen.Truth) *report.Table {
	t := &report.Table{
		ID:      "E9",
		Title:   "Error-detection coverage, XE vs XK (vs ground truth)",
		Columns: []string{"population", "true system failures", "attributed", "coverage", "precision"},
	}
	populations := []struct {
		name   string
		class  machine.NodeClass
		minNds int
	}{
		{"XE all scales", machine.ClassXE, 0},
		{"XK all scales", machine.ClassXK, 0},
		{"XE full scale (>=16384)", machine.ClassXE, 16384},
		{"XK full scale (>=3000)", machine.ClassXK, 3000},
	}
	cov := make([]metrics.Coverage, len(populations))
	for i := range res.Runs {
		r := &res.Runs[i]
		trueSys := truth[r.ApID].Outcome == correlate.OutcomeSystemFailure
		attributed := r.Outcome == correlate.OutcomeSystemFailure
		for k, p := range populations {
			if r.Class == p.class && r.NumNodes() >= p.minNds {
				cov[k].Add(trueSys, attributed)
			}
		}
	}
	for k, p := range populations {
		t.AddRow(p.name, report.Count(cov[k].TrueSystem), report.Count(cov[k].Attributed),
			report.Pct(cov[k].Rate()), report.Pct(cov[k].Precision()))
	}
	t.Notes = append(t.Notes,
		"coverage: share of truly system-caused failures the logs let the pipeline attribute to the system",
		"the paper's lesson 3: hybrid (XK) resiliency is impaired by inadequate error detection",
	)
	return t
}

// coalesced runs the coalescing pipeline over res's (already deduplicated)
// events at the given tupling window and the default spatial window.
func coalesced(res *core.Result, temporal time.Duration) ([]coalesce.Tuple, []coalesce.Group, coalesce.Stats) {
	return coalesce.Pipeline(res.Events, res.RawEvents, temporal, coalesce.DefaultSpatialWindow)
}

// E10Coalesce reports the preprocessing reduction chain.
func E10Coalesce(res *core.Result) *report.Table {
	t := &report.Table{
		ID:      "E10",
		Title:   "Log coalescing effectiveness",
		Columns: []string{"stage", "records", "reduction vs raw"},
	}
	_, _, s := coalesced(res, coalesce.DefaultTemporalWindow)
	ratio := func(n int) string {
		if n == 0 || s.Raw == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.1fx", float64(s.Raw)/float64(n))
	}
	t.AddRow("raw log lines (classified)", report.Count(s.Raw), "1.0x")
	t.AddRow("after dedup", report.Count(s.Deduped), ratio(s.Deduped))
	t.AddRow("error episodes (tuples)", report.Count(s.Tuples), ratio(s.Tuples))
	t.AddRow("machine-level events (groups)", report.Count(s.Groups), ratio(s.Groups))
	return t
}

// Ablations re-attributes every run under modified correlator settings and
// scores each setting against ground truth: A1 sweeps the evidence window
// (nil windows: the default sweep), A2 compares the node-time join with the
// naive temporal-only join. Both share one copy of the runs and one event
// index.
func Ablations(res *core.Result, top *machine.Topology, truth map[uint64]gen.Truth, windows []time.Duration) (a1, a2 *report.Table, err error) {
	if len(windows) == 0 {
		windows = []time.Duration{
			time.Minute, 3 * time.Minute, 6 * time.Minute,
			15 * time.Minute, time.Hour, 6 * time.Hour,
		}
	}
	raw := rawRuns(res)
	ix := interval.NewIndex(res.Events)
	columns := []string{"attributed system", "measured fraction", "precision", "recall"}
	score := func(t *report.Table, label string, cfg correlate.Config) error {
		corr, err := correlate.New(ix, top, cfg)
		if err != nil {
			return err
		}
		attr := corr.AttributeAll(raw)
		prec, rec, attributed := accuracy(attr, truth)
		frac := 0.0
		if len(attr) > 0 {
			frac = float64(attributed) / float64(len(attr))
		}
		t.AddRow(label, report.Count(attributed), report.Pct(frac), report.Pct(prec), report.Pct(rec))
		return nil
	}

	a1 = &report.Table{
		ID:      "A1",
		Title:   "Ablation: evidence window vs attribution quality",
		Columns: append([]string{"window"}, columns...),
	}
	for _, w := range windows {
		cfg := correlate.DefaultConfig()
		cfg.EvidenceWindow = w
		if err := score(a1, w.String(), cfg); err != nil {
			return nil, nil, err
		}
	}
	a1.Notes = append(a1.Notes, "default window: 6m; growing the window inflates attribution (precision falls)")

	a2 = &report.Table{
		ID:      "A2",
		Title:   "Ablation: node-time join vs temporal-only baseline",
		Columns: append([]string{"method"}, columns...),
	}
	for _, mode := range []struct {
		name     string
		temporal bool
	}{
		{"node-time join (LogDiver)", false},
		{"temporal-only baseline", true},
	} {
		cfg := correlate.DefaultConfig()
		cfg.TemporalOnly = mode.temporal
		if err := score(a2, mode.name, cfg); err != nil {
			return nil, nil, err
		}
	}
	a2.Notes = append(a2.Notes, "the temporal-only baseline attributes any failure near any machine event: precision collapses")
	return a1, a2, nil
}

// rawRuns strips attribution from a result's runs.
func rawRuns(res *core.Result) []alps.AppRun {
	out := make([]alps.AppRun, len(res.Runs))
	for i, r := range res.Runs {
		out[i] = r.AppRun
	}
	return out
}

// accuracy computes precision/recall of system-failure attribution against
// ground truth, plus the attributed count.
func accuracy(attr []correlate.AttributedRun, truth map[uint64]gen.Truth) (precision, recall float64, attributed int) {
	var trueSys, correct int
	for _, r := range attr {
		isTrue := truth[r.ApID].Outcome == correlate.OutcomeSystemFailure
		isAttr := r.Outcome == correlate.OutcomeSystemFailure
		if isTrue {
			trueSys++
		}
		if isAttr {
			attributed++
			if isTrue {
				correct++
			}
		}
	}
	precision, recall = 1, 1
	if attributed > 0 {
		precision = float64(correct) / float64(attributed)
	}
	if trueSys > 0 {
		recall = float64(correct) / float64(trueSys)
	}
	return precision, recall, attributed
}

// All runs every experiment that needs only the pipeline result, plus the
// truth-dependent ones when truth is supplied (ds may be nil).
func All(res *core.Result, top *machine.Topology, truth map[uint64]gen.Truth) ([]*report.Table, error) {
	var out []*report.Table
	out = append(out, E1Workload(res), E2Outcomes(res), E3Categories(res))
	e4, err := E4ScalingXE(res)
	if err != nil {
		return nil, err
	}
	e5, err := E5ScalingXK(res)
	if err != nil {
		return nil, err
	}
	e6, err := E6Distributions(res)
	if err != nil {
		return nil, err
	}
	e7, err := E7MTTI(res)
	if err != nil {
		return nil, err
	}
	e8, err := E8Timeline(res)
	if err != nil {
		return nil, err
	}
	out = append(out, e4, e5, e6, e7, e8)
	if truth != nil {
		out = append(out, E9Detection(res, truth))
	}
	out = append(out, E10Coalesce(res), E11Energy(res))
	e12, err := E12InterruptDist(res)
	if err != nil {
		return nil, err
	}
	e13, err := E13Checkpoint(res)
	if err != nil {
		return nil, err
	}
	out = append(out, e12, e13, E14BlastRadius(res))
	if top != nil {
		e15, err := E15Availability(res, top)
		if err != nil {
			return nil, err
		}
		out = append(out, e15)
	}
	e16, err := E16Survival(res)
	if err != nil {
		return nil, err
	}
	out = append(out, e16, E17Applications(res))
	if truth != nil && top != nil {
		a1, a2, err := Ablations(res, top, truth, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, a1, a2)
	}
	out = append(out, A3Coalesce(res, nil))
	return out, nil
}
