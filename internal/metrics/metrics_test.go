package metrics

import (
	"math"
	"testing"
	"time"

	"logdiver/internal/alps"
	"logdiver/internal/correlate"
	"logdiver/internal/machine"
	"logdiver/internal/taxonomy"
)

var base = time.Date(2013, 4, 3, 0, 0, 0, 0, time.UTC)

func mkRun(apid uint64, nNodes int, dur time.Duration, class machine.NodeClass, outcome correlate.Outcome, cause taxonomy.Category) correlate.AttributedRun {
	return correlate.AttributedRun{
		AppRun: alps.AppRun{
			ApID:  apid,
			Start: base,
			End:   base.Add(dur),
		},
		Attribution: correlate.Attribution{Class: class, Outcome: outcome, Cause: cause, Nodes: int32(nNodes)},
	}
}

func TestOutcomesBreakdown(t *testing.T) {
	runs := []correlate.AttributedRun{
		mkRun(1, 10, time.Hour, machine.ClassXE, correlate.OutcomeSuccess, 0),
		mkRun(2, 10, time.Hour, machine.ClassXE, correlate.OutcomeSuccess, 0),
		mkRun(3, 10, 8*time.Hour, machine.ClassXE, correlate.OutcomeSystemFailure, taxonomy.NodeHeartbeat),
		mkRun(4, 10, time.Hour, machine.ClassXE, correlate.OutcomeUserFailure, 0),
	}
	b := Outcomes(runs)
	if b.Total != 4 {
		t.Errorf("Total = %d", b.Total)
	}
	if got := b.SystemFailureFraction(); got != 0.25 {
		t.Errorf("SystemFailureFraction = %v, want 0.25", got)
	}
	// node-hours: 10+10+80+10 = 110; system = 80.
	if got := b.SystemNodeHoursFraction(); math.Abs(got-80.0/110.0) > 1e-12 {
		t.Errorf("SystemNodeHoursFraction = %v, want %v", got, 80.0/110.0)
	}
	if b.Counts[correlate.OutcomeSuccess] != 2 {
		t.Errorf("success count = %d", b.Counts[correlate.OutcomeSuccess])
	}
}

func TestOutcomesEmpty(t *testing.T) {
	b := Outcomes(nil)
	if b.SystemFailureFraction() != 0 || b.SystemNodeHoursFraction() != 0 {
		t.Error("empty breakdown should report zero fractions")
	}
}

func TestGeometricBuckets(t *testing.T) {
	bounds := GeometricBuckets(100)
	want := []int{1, 2, 4, 8, 16, 32, 64, 101}
	if len(bounds) != len(want) {
		t.Fatalf("bounds = %v, want %v", bounds, want)
	}
	for i := range want {
		if bounds[i] != want[i] {
			t.Fatalf("bounds = %v, want %v", bounds, want)
		}
	}
}

func TestFailureProbabilityByScale(t *testing.T) {
	var runs []correlate.AttributedRun
	// 100 small runs, 5 fail; 50 large runs, 20 fail.
	for i := 0; i < 100; i++ {
		o := correlate.OutcomeSuccess
		if i < 5 {
			o = correlate.OutcomeSystemFailure
		}
		runs = append(runs, mkRun(uint64(i), 4, time.Hour, machine.ClassXE, o, taxonomy.NodeHeartbeat))
	}
	for i := 0; i < 50; i++ {
		o := correlate.OutcomeSuccess
		if i < 20 {
			o = correlate.OutcomeSystemFailure
		}
		runs = append(runs, mkRun(uint64(1000+i), 100, time.Hour, machine.ClassXE, o, taxonomy.NodeHeartbeat))
	}
	buckets, err := FailureProbabilityByScale(runs, []int{1, 10, 1000}, machine.ClassXE)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 2 {
		t.Fatalf("got %d buckets", len(buckets))
	}
	if buckets[0].Runs != 100 || buckets[0].Failures != 5 {
		t.Errorf("bucket 0: %+v", buckets[0])
	}
	if buckets[1].Runs != 50 || buckets[1].Failures != 20 {
		t.Errorf("bucket 1: %+v", buckets[1])
	}
	if math.Abs(buckets[1].Prob.P-0.4) > 1e-12 {
		t.Errorf("bucket 1 P = %v", buckets[1].Prob.P)
	}
	if buckets[0].Prob.Lo >= buckets[0].Prob.P || buckets[0].Prob.Hi <= buckets[0].Prob.P {
		t.Errorf("bucket 0 CI [%v,%v] broken", buckets[0].Prob.Lo, buckets[0].Prob.Hi)
	}
}

func TestFailureProbabilityClassFilter(t *testing.T) {
	runs := []correlate.AttributedRun{
		mkRun(1, 4, time.Hour, machine.ClassXE, correlate.OutcomeSystemFailure, taxonomy.NodeHeartbeat),
		mkRun(2, 4, time.Hour, machine.ClassXK, correlate.OutcomeSuccess, 0),
	}
	buckets, err := FailureProbabilityByScale(runs, []int{1, 100}, machine.ClassXK)
	if err != nil {
		t.Fatal(err)
	}
	if buckets[0].Runs != 1 || buckets[0].Failures != 0 {
		t.Errorf("XK filter: %+v", buckets[0])
	}
	all, err := FailureProbabilityByScale(runs, []int{1, 100}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if all[0].Runs != 2 {
		t.Errorf("no filter: %+v", all[0])
	}
}

func TestFailureProbabilityErrors(t *testing.T) {
	if _, err := FailureProbabilityByScale(nil, []int{1}, 0); err == nil {
		t.Error("single bound accepted")
	}
	if _, err := FailureProbabilityByScale(nil, []int{4, 2}, 0); err == nil {
		t.Error("descending bounds accepted")
	}
}

func TestScaleBucketLabel(t *testing.T) {
	if got := (ScaleBucket{Lo: 4, Hi: 8}).Label(); got != "4-7" {
		t.Errorf("Label = %q", got)
	}
	if got := (ScaleBucket{Lo: 1, Hi: 2}).Label(); got != "1" {
		t.Errorf("Label = %q", got)
	}
}

func TestMTTIByScale(t *testing.T) {
	runs := []correlate.AttributedRun{
		mkRun(1, 4, 10*time.Hour, machine.ClassXE, correlate.OutcomeSuccess, 0),
		mkRun(2, 4, 10*time.Hour, machine.ClassXE, correlate.OutcomeSystemFailure, taxonomy.NodeHeartbeat),
		mkRun(3, 4, 20*time.Hour, machine.ClassXE, correlate.OutcomeSystemFailure, taxonomy.NodeHeartbeat),
	}
	buckets, err := MTTIByScale(runs, []int{1, 100}, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := buckets[0]
	if b.Runs != 3 || b.Interrupts != 2 {
		t.Fatalf("bucket: %+v", b)
	}
	if math.Abs(b.ExposureHours-40) > 1e-9 {
		t.Errorf("ExposureHours = %v", b.ExposureHours)
	}
	if math.Abs(b.MTTIHours-20) > 1e-9 {
		t.Errorf("MTTIHours = %v, want 20", b.MTTIHours)
	}
}

func TestMTTINoInterrupts(t *testing.T) {
	runs := []correlate.AttributedRun{
		mkRun(1, 4, 10*time.Hour, machine.ClassXE, correlate.OutcomeSuccess, 0),
	}
	buckets, err := MTTIByScale(runs, []int{1, 100}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if buckets[0].MTTIHours != 0 {
		t.Errorf("MTTIHours = %v, want 0 (no interrupts)", buckets[0].MTTIHours)
	}
	if _, err := MTTIByScale(nil, []int{1}, 0); err == nil {
		t.Error("single bound accepted")
	}
}

func TestByCategoryAndGroup(t *testing.T) {
	runs := []correlate.AttributedRun{
		mkRun(1, 2, time.Hour, machine.ClassXE, correlate.OutcomeSystemFailure, taxonomy.NodeHeartbeat),
		mkRun(2, 2, time.Hour, machine.ClassXE, correlate.OutcomeSystemFailure, taxonomy.NodeHeartbeat),
		mkRun(3, 2, 3*time.Hour, machine.ClassXE, correlate.OutcomeSystemFailure, taxonomy.FilesystemLBUG),
		mkRun(4, 2, time.Hour, machine.ClassXE, correlate.OutcomeSystemFailure, taxonomy.KernelPanic),
		mkRun(5, 2, time.Hour, machine.ClassXE, correlate.OutcomeSuccess, 0),
	}
	cats := ByCategory(runs)
	if len(cats) != 3 {
		t.Fatalf("got %d categories", len(cats))
	}
	if cats[0].Category != taxonomy.NodeHeartbeat || cats[0].Failures != 2 {
		t.Errorf("top category: %+v", cats[0])
	}
	// Each share carries its taxonomy group: NodeHeartbeat and KernelPanic
	// both map to GroupNode, the LBUG to GroupFilesystem with its 6 lost
	// node-hours.
	for _, c := range cats {
		want := taxonomy.GroupNode
		if c.Category == taxonomy.FilesystemLBUG {
			want = taxonomy.GroupFilesystem
			if math.Abs(c.NodeHoursLost-6) > 1e-9 {
				t.Errorf("fs category: %+v", c)
			}
		}
		if c.Group != want {
			t.Errorf("category %v in group %v, want %v", c.Category, c.Group, want)
		}
	}
}

func TestTimeline(t *testing.T) {
	runs := []correlate.AttributedRun{
		mkRun(1, 2, time.Hour, machine.ClassXE, correlate.OutcomeSuccess, 0),                             // ends h1
		mkRun(2, 2, 25*time.Hour, machine.ClassXE, correlate.OutcomeSystemFailure, taxonomy.KernelPanic), // ends day 2
	}
	tl, err := Timeline(runs, base, base.Add(48*time.Hour), 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(tl) != 3 {
		t.Fatalf("got %d buckets", len(tl))
	}
	if tl[0].Runs != 1 || tl[0].LostNodeHours != 0 {
		t.Errorf("day 0: %+v", tl[0])
	}
	if tl[1].Runs != 1 || tl[1].SystemFailures != 1 || math.Abs(tl[1].LostNodeHours-50) > 1e-9 {
		t.Errorf("day 1: %+v", tl[1])
	}
}

func TestTimelineErrors(t *testing.T) {
	if _, err := Timeline(nil, base, base.Add(time.Hour), 0); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := Timeline(nil, base, base, time.Hour); err == nil {
		t.Error("empty range accepted")
	}
}

func TestTimelineIgnoresOutOfRange(t *testing.T) {
	early := mkRun(1, 2, time.Hour, machine.ClassXE, correlate.OutcomeSuccess, 0)
	early.Start = base.Add(-48 * time.Hour)
	early.End = base.Add(-47 * time.Hour)
	tl, err := Timeline([]correlate.AttributedRun{early}, base, base.Add(24*time.Hour), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range tl {
		if b.Runs != 0 {
			t.Errorf("out-of-range run counted in %+v", b)
		}
	}
}

func TestEnergyModel(t *testing.T) {
	m := DefaultEnergyModel()
	if m.WattsPerXENode != 350 || m.WattsPerXKNode != 450 {
		t.Fatalf("DefaultEnergyModel = %+v, want 350 W XE, 450 W XK", m)
	}
	runs := []correlate.AttributedRun{
		mkRun(1, 100, 10*time.Hour, machine.ClassXE, correlate.OutcomeSystemFailure, taxonomy.KernelPanic),
		mkRun(2, 100, 10*time.Hour, machine.ClassXK, correlate.OutcomeSystemFailure, taxonomy.GPUMemoryDBE),
		mkRun(3, 1000, 10*time.Hour, machine.ClassXE, correlate.OutcomeSuccess, 0),
	}
	// 1000 node-hours at 350 W + 1000 node-hours at 450 W = 0.8 MWh.
	var mwh float64
	for _, r := range runs {
		if r.Outcome != correlate.OutcomeSystemFailure {
			continue
		}
		w := m.WattsPerXENode
		if r.Class == machine.ClassXK {
			w = m.WattsPerXKNode
		}
		mwh += r.NodeHours() * w / 1e6
	}
	if math.Abs(mwh-0.8) > 1e-9 {
		t.Errorf("lost energy = %v MWh, want 0.8", mwh)
	}
}

func TestCoverageAdd(t *testing.T) {
	// The XK population: a detected failure, a silent system failure, a
	// false positive and a true success.
	var xk Coverage
	xk.Add(true, true)
	xk.Add(true, false)
	xk.Add(false, true)
	xk.Add(false, false)
	if xk != (Coverage{TrueSystem: 2, Detected: 1, FalseSystem: 1, Attributed: 2}) {
		t.Errorf("XK coverage: %+v", xk)
	}
	if math.Abs(xk.Rate()-0.5) > 1e-12 {
		t.Errorf("XK Rate = %v", xk.Rate())
	}
	if math.Abs(xk.Precision()-0.5) > 1e-12 {
		t.Errorf("XK Precision = %v", xk.Precision())
	}

	var xe Coverage
	xe.Add(true, true)
	if xe.Rate() != 1 || xe.Precision() != 1 {
		t.Errorf("XE coverage %+v: Rate = %v, Precision = %v", xe, xe.Rate(), xe.Precision())
	}
	var empty Coverage
	if empty.Rate() != 1 || empty.Precision() != 1 {
		t.Error("empty coverage should report perfect rates")
	}
}

func TestInterruptGaps(t *testing.T) {
	mk := func(apid uint64, endOffset time.Duration, class machine.NodeClass, outcome correlate.Outcome) correlate.AttributedRun {
		r := mkRun(apid, 2, time.Hour, class, outcome, taxonomy.KernelPanic)
		r.End = base.Add(endOffset)
		return r
	}
	runs := []correlate.AttributedRun{
		mk(1, 1*time.Hour, machine.ClassXE, correlate.OutcomeSystemFailure),
		mk(2, 4*time.Hour, machine.ClassXE, correlate.OutcomeSystemFailure),
		mk(3, 2*time.Hour, machine.ClassXK, correlate.OutcomeSystemFailure),
		mk(4, 3*time.Hour, machine.ClassXE, correlate.OutcomeSuccess), // not an interrupt
	}
	gaps, n := InterruptGaps(runs, 0)
	if len(gaps) != 2 || n != 3 {
		t.Fatalf("gaps = %v over %d interrupts, want 2 entries over 3", gaps, n)
	}
	if gaps[0] != 1 || gaps[1] != 2 {
		t.Errorf("gaps = %v, want [1 2]", gaps)
	}
	if xe, n := InterruptGaps(runs, machine.ClassXE); len(xe) != 1 || xe[0] != 3 || n != 2 {
		t.Errorf("XE gaps = %v over %d interrupts, want [3] over 2", xe, n)
	}
	// Failures ending at the same instant are one interrupt.
	same := []correlate.AttributedRun{runs[0], mk(5, 1*time.Hour, machine.ClassXK, correlate.OutcomeSystemFailure)}
	if got, n := InterruptGaps(same, 0); len(got) != 0 || n != 1 {
		t.Errorf("simultaneous failures: gaps %v over %d interrupts, want none over 1", got, n)
	}
	if got, n := InterruptGaps(runs[:1], 0); got != nil || n != 1 {
		t.Errorf("single failure: gaps %v over %d interrupts, want nil over 1", got, n)
	}
	if got, n := InterruptGaps(runs[3:], 0); got != nil || n != 0 {
		t.Errorf("no failure: gaps %v over %d interrupts, want nil over 0", got, n)
	}
	if got, n := InterruptGaps(nil, 0); got != nil || n != 0 {
		t.Errorf("empty input: gaps %v over %d interrupts, want nil over 0", got, n)
	}
}

func TestSamples(t *testing.T) {
	runs := []correlate.AttributedRun{
		mkRun(1, 4, 2*time.Hour, machine.ClassXE, correlate.OutcomeSuccess, 0),
		mkRun(2, 8, 4*time.Hour, machine.ClassXK, correlate.OutcomeSuccess, 0),
	}
	if got := DurationSamples(runs, 0); len(got) != 2 || got[0] != 2 {
		t.Errorf("DurationSamples = %v", got)
	}
	if got := DurationSamples(runs, machine.ClassXK); len(got) != 1 || got[0] != 4 {
		t.Errorf("XK DurationSamples = %v", got)
	}
	if got := SizeSamples(runs, 0); len(got) != 2 || got[1] != 8 {
		t.Errorf("SizeSamples = %v", got)
	}
	if got := SizeSamples(runs, machine.ClassXE); len(got) != 1 || got[0] != 4 {
		t.Errorf("XE SizeSamples = %v", got)
	}
}
