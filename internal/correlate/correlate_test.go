package correlate

import (
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"logdiver/internal/alps"
	"logdiver/internal/errlog"
	"logdiver/internal/interval"
	"logdiver/internal/machine"
	"logdiver/internal/taxonomy"
	"logdiver/internal/wlm"
)

var base = time.Date(2013, 4, 3, 12, 0, 0, 0, time.UTC)

func testTopology(t *testing.T) *machine.Topology {
	t.Helper()
	top, err := machine.New(machine.Small())
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func run(nodes []machine.NodeID, start time.Time, dur time.Duration, exit, sig int) alps.AppRun {
	return alps.AppRun{
		ApID:      1,
		JobID:     "1.bw",
		User:      "u",
		Cmd:       "app",
		Width:     len(nodes) * 16,
		Start:     start,
		End:       start.Add(dur),
		ExitCode:  exit,
		Signal:    sig,
		Placement: machine.PlacementOf(nodes),
	}
}

func critEvent(node machine.NodeID, at time.Time, cat taxonomy.Category) errlog.Event {
	return errlog.Event{Time: at, Node: node, Category: cat, Severity: taxonomy.SevCritical}
}

func newCorrelator(t *testing.T, events []errlog.Event, cfg Config) *Correlator {
	t.Helper()
	c, err := New(interval.NewIndex(events), testTopology(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	top := testTopology(t)
	ix := interval.NewIndex(nil)
	if _, err := New(nil, top, DefaultConfig()); err == nil {
		t.Error("nil index accepted")
	}
	if _, err := New(ix, nil, DefaultConfig()); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := New(ix, top, Config{PostWindow: -time.Second}); err == nil {
		t.Error("negative window accepted")
	}
}

func TestSuccessNeedsNoEvidence(t *testing.T) {
	// Even with a critical event on the node, a clean exit is a success:
	// outcome is driven by the exit record, evidence only explains failures.
	c := newCorrelator(t, []errlog.Event{
		critEvent(3, base.Add(time.Hour), taxonomy.HardwareMemoryUE),
	}, DefaultConfig())
	got := c.Attribute(run([]machine.NodeID{3}, base, 2*time.Hour, 0, 0))
	if got.Outcome != OutcomeSuccess {
		t.Errorf("Outcome = %v, want SUCCESS", got.Outcome)
	}
	if got.HasEvidence {
		t.Error("success carries evidence")
	}
}

func TestSystemFailureOnNodeOverlap(t *testing.T) {
	at := base.Add(2*time.Hour - 5*time.Minute)
	c := newCorrelator(t, []errlog.Event{
		critEvent(3, at, taxonomy.HardwareMemoryUE),
	}, DefaultConfig())
	got := c.Attribute(run([]machine.NodeID{2, 3, 4}, base, 2*time.Hour, 1, 0))
	if got.Outcome != OutcomeSystemFailure {
		t.Fatalf("Outcome = %v, want SYSTEM", got.Outcome)
	}
	if got.Cause != taxonomy.HardwareMemoryUE {
		t.Errorf("Cause = %v", got.Cause)
	}
	if !got.HasEvidence || !got.Evidence.Time.Equal(at) {
		t.Errorf("Evidence = %+v", got.Evidence)
	}
}

func TestNodeCountTakenAtAttribution(t *testing.T) {
	c := newCorrelator(t, nil, DefaultConfig())
	got := c.Attribute(run([]machine.NodeID{3, 4, 5, 9}, base, 2*time.Hour, 0, 0))
	if got.NumNodes() != 4 || got.NodeHours() != 8 {
		t.Errorf("NumNodes = %d, NodeHours = %v; want 4, 8", got.NumNodes(), got.NodeHours())
	}
}

func TestMidRunEventIsNotEvidence(t *testing.T) {
	// An error an hour before the death time did not kill the run: the
	// end-anchored evidence window must exclude it.
	c := newCorrelator(t, []errlog.Event{
		critEvent(3, base.Add(time.Hour), taxonomy.HardwareMemoryUE),
	}, DefaultConfig())
	got := c.Attribute(run([]machine.NodeID{3}, base, 2*time.Hour, 1, 0))
	if got.Outcome != OutcomeUserFailure {
		t.Errorf("Outcome = %v, want USER (event outside evidence window)", got.Outcome)
	}
}

func TestShortRunSearchesWholeWindow(t *testing.T) {
	// A 2-minute run's window is its full execution span.
	c := newCorrelator(t, []errlog.Event{
		critEvent(3, base.Add(30*time.Second), taxonomy.SoftwareALPS),
	}, DefaultConfig())
	got := c.Attribute(run([]machine.NodeID{3}, base, 2*time.Minute, 1, 0))
	if got.Outcome != OutcomeSystemFailure {
		t.Errorf("Outcome = %v, want SYSTEM", got.Outcome)
	}
}

func TestUserFailureWhenEventOnOtherNode(t *testing.T) {
	c := newCorrelator(t, []errlog.Event{
		critEvent(99, base.Add(time.Hour), taxonomy.HardwareMemoryUE),
	}, DefaultConfig())
	got := c.Attribute(run([]machine.NodeID{2, 3}, base, 2*time.Hour, 1, 0))
	if got.Outcome != OutcomeUserFailure {
		t.Errorf("Outcome = %v, want USER", got.Outcome)
	}
}

func TestTemporalOnlyBaselineOverattributes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TemporalOnly = true
	c := newCorrelator(t, []errlog.Event{
		critEvent(99, base.Add(2*time.Hour-5*time.Minute), taxonomy.HardwareMemoryUE),
	}, cfg)
	got := c.Attribute(run([]machine.NodeID{2, 3}, base, 2*time.Hour, 1, 0))
	if got.Outcome != OutcomeSystemFailure {
		t.Errorf("Outcome = %v, want SYSTEM under temporal-only baseline", got.Outcome)
	}
}

func TestSystemWideEventQualifies(t *testing.T) {
	sys := errlog.Event{
		Time: base.Add(55 * time.Minute), Node: errlog.SystemWide,
		Category: taxonomy.FilesystemLBUG, Severity: taxonomy.SevCritical,
	}
	c := newCorrelator(t, []errlog.Event{sys}, DefaultConfig())
	got := c.Attribute(run([]machine.NodeID{1}, base, time.Hour, 0, 9))
	if got.Outcome != OutcomeSystemFailure || got.Cause != taxonomy.FilesystemLBUG {
		t.Errorf("got %v/%v, want SYSTEM/FS_LBUG", got.Outcome, got.Cause)
	}
}

func TestQuiesceGatedBySize(t *testing.T) {
	sys := errlog.Event{
		Time: base.Add(55 * time.Minute), Node: errlog.SystemWide,
		Category: taxonomy.InterconnectRouting, Severity: taxonomy.SevError,
	}
	c := newCorrelator(t, []errlog.Event{sys}, DefaultConfig())
	// A small failed run must not be explained by a machine-wide quiesce.
	small := c.Attribute(run([]machine.NodeID{1, 2}, base, time.Hour, 0, 9))
	if small.Outcome != OutcomeUserFailure {
		t.Errorf("small run Outcome = %v, want USER (quiesce gated)", small.Outcome)
	}
	// A large run is vulnerable to quiesce.
	big := make([]machine.NodeID, DefaultConfig().QuiesceMinNodes)
	for i := range big {
		big[i] = machine.NodeID(i) // beyond the small machine: only the count matters
	}
	large := c.Attribute(run(big, base, time.Hour, 0, 9))
	if large.Outcome != OutcomeSystemFailure || large.Cause != taxonomy.InterconnectRouting {
		t.Errorf("large run got %v/%v, want SYSTEM/HSN_ROUTING", large.Outcome, large.Cause)
	}
}

func TestBenignEventsDoNotQualify(t *testing.T) {
	ce := errlog.Event{
		Time: base.Add(time.Minute), Node: 1,
		Category: taxonomy.HardwareMemoryCE, Severity: taxonomy.SevWarning,
	}
	c := newCorrelator(t, []errlog.Event{ce}, DefaultConfig())
	got := c.Attribute(run([]machine.NodeID{1}, base, time.Hour, 1, 0))
	if got.Outcome != OutcomeUserFailure {
		t.Errorf("Outcome = %v; corrected memory errors must not explain failures", got.Outcome)
	}
}

func TestPostWindowCatchesLateHeartbeat(t *testing.T) {
	// Node crash logged 90s after the application died.
	late := critEvent(1, base.Add(time.Hour+90*time.Second), taxonomy.NodeHeartbeat)
	c := newCorrelator(t, []errlog.Event{late}, DefaultConfig())
	got := c.Attribute(run([]machine.NodeID{1}, base, time.Hour, 0, 9))
	if got.Outcome != OutcomeSystemFailure {
		t.Errorf("Outcome = %v, want SYSTEM (post-window)", got.Outcome)
	}
	// With a tiny post-window the evidence is missed.
	tiny := Config{EvidenceWindow: 10 * time.Minute, PostWindow: time.Second}
	c2 := newCorrelator(t, []errlog.Event{late}, tiny)
	if got := c2.Attribute(run([]machine.NodeID{1}, base, time.Hour, 0, 9)); got.Outcome != OutcomeUserFailure {
		t.Errorf("Outcome = %v, want USER with 1s post-window", got.Outcome)
	}
}

func TestWalltimeKillDetection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Jobs = map[string]wlm.Job{
		"1.bw": {
			ID:           "1.bw",
			Walltime:     time.Hour,
			UsedWalltime: time.Hour,
		},
	}
	c := newCorrelator(t, nil, cfg)
	got := c.Attribute(run([]machine.NodeID{1}, base, time.Hour, 0, 15))
	if got.Outcome != OutcomeWalltime {
		t.Errorf("Outcome = %v, want WALLTIME", got.Outcome)
	}
	// Same signal but the job used only half its walltime: user abort.
	cfg.Jobs["1.bw"] = wlm.Job{ID: "1.bw", Walltime: 2 * time.Hour, UsedWalltime: time.Hour}
	c2 := newCorrelator(t, nil, cfg)
	if got := c2.Attribute(run([]machine.NodeID{1}, base, time.Hour, 0, 15)); got.Outcome != OutcomeUserFailure {
		t.Errorf("Outcome = %v, want USER", got.Outcome)
	}
	// System evidence takes precedence over walltime heuristics.
	cfg.Jobs["1.bw"] = wlm.Job{ID: "1.bw", Walltime: time.Hour, UsedWalltime: time.Hour}
	c3 := newCorrelator(t, []errlog.Event{critEvent(1, base.Add(55*time.Minute), taxonomy.NodeHeartbeat)}, cfg)
	if got := c3.Attribute(run([]machine.NodeID{1}, base, time.Hour, 0, 15)); got.Outcome != OutcomeSystemFailure {
		t.Errorf("Outcome = %v, want SYSTEM", got.Outcome)
	}
}

func TestWalltimeNeedsKnownJob(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Jobs = map[string]wlm.Job{}
	c := newCorrelator(t, nil, cfg)
	if got := c.Attribute(run([]machine.NodeID{1}, base, time.Hour, 0, 15)); got.Outcome != OutcomeUserFailure {
		t.Errorf("Outcome = %v, want USER when job unknown", got.Outcome)
	}
}

func TestClassLabeling(t *testing.T) {
	top := testTopology(t)
	xe := top.XENodes()[:2]
	xk := top.XKNodes()[:2]
	c := newCorrelator(t, nil, DefaultConfig())

	if got := c.Attribute(run(xe, base, time.Hour, 0, 0)); got.Class != machine.ClassXE {
		t.Errorf("XE placement labeled %v", got.Class)
	}
	if got := c.Attribute(run(xk, base, time.Hour, 0, 0)); got.Class != machine.ClassXK {
		t.Errorf("XK placement labeled %v", got.Class)
	}
	mixed := append(append([]machine.NodeID{}, xe...), xk...)
	if got := c.Attribute(run(mixed, base, time.Hour, 0, 0)); got.Class != machine.ClassXK {
		t.Errorf("mixed placement labeled %v, want XK", got.Class)
	}
}

func TestEarliestEvidenceWins(t *testing.T) {
	events := []errlog.Event{
		critEvent(1, base.Add(58*time.Minute), taxonomy.HardwareMemoryUE),
		critEvent(2, base.Add(55*time.Minute), taxonomy.InterconnectLink),
	}
	// InterconnectLink is SevError-grade in the default rules; keep the
	// severity explicit here.
	events[1].Severity = taxonomy.SevError
	c := newCorrelator(t, events, DefaultConfig())
	got := c.Attribute(run([]machine.NodeID{1, 2}, base, time.Hour, 1, 0))
	if got.Cause != taxonomy.InterconnectLink {
		t.Errorf("Cause = %v, want earliest (HSN_LINK)", got.Cause)
	}
}

func TestAttributeAllPreservesOrder(t *testing.T) {
	c := newCorrelator(t, nil, DefaultConfig())
	runs := []alps.AppRun{
		run([]machine.NodeID{1}, base, time.Hour, 0, 0),
		run([]machine.NodeID{2}, base.Add(time.Hour), time.Hour, 1, 0),
	}
	runs[1].ApID = 2
	got := c.AttributeAll(runs)
	if len(got) != 2 || got[0].ApID != 1 || got[1].ApID != 2 {
		t.Errorf("order not preserved: %+v", got)
	}
	if got[0].Outcome != OutcomeSuccess || got[1].Outcome != OutcomeUserFailure {
		t.Errorf("outcomes: %v, %v", got[0].Outcome, got[1].Outcome)
	}
}

func TestOutcomeString(t *testing.T) {
	tests := []struct {
		give Outcome
		want string
	}{
		{OutcomeSuccess, "SUCCESS"},
		{OutcomeUserFailure, "USER"},
		{OutcomeWalltime, "WALLTIME"},
		{OutcomeSystemFailure, "SYSTEM"},
		{Outcome(42), "OUTCOME(42)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.give, got, tt.want)
		}
	}
	for o := OutcomeSuccess; o < numOutcomes; o++ {
		if got := o.String(); strings.HasPrefix(got, "OUTCOME(") {
			t.Errorf("outcome %d has no mnemonic: %q", int(o), got)
		}
	}
	// Outcomes is the breakdowns' row order: success first, system last.
	if got, want := Outcomes(), [...]Outcome{OutcomeSuccess, OutcomeUserFailure, OutcomeWalltime, OutcomeSystemFailure}; got != want {
		t.Errorf("Outcomes() = %v, want %v", got, want)
	}
}

func TestQualifying(t *testing.T) {
	tests := []struct {
		cat  taxonomy.Category
		sev  taxonomy.Severity
		want bool
	}{
		{taxonomy.HardwareMemoryUE, taxonomy.SevCritical, true},
		{taxonomy.HardwareMemoryCE, taxonomy.SevCritical, false}, // benign category
		{taxonomy.InterconnectLink, taxonomy.SevError, true},
		{taxonomy.FilesystemTimeout, taxonomy.SevWarning, false}, // too mild
		{taxonomy.GPUPageRetir, taxonomy.SevInfo, false},
	}
	for _, tt := range tests {
		e := errlog.Event{Category: tt.cat, Severity: tt.sev}
		if got := interval.Qualifying(e); got != tt.want {
			t.Errorf("Qualifying(%v,%v) = %v, want %v", tt.cat, tt.sev, got, tt.want)
		}
	}
}

// TestAttributedRunSize pins the per-run record every Result, snapshot and
// what-if input holds a copy of: carrying a placement must not grow it past
// the 264 bytes an expanded node list took. It also pins the attribution
// alone, the per-run record the online pipeline carries and saves.
func TestAttributedRunSize(t *testing.T) {
	if n := unsafe.Sizeof(AttributedRun{}); n > 264 {
		t.Errorf("AttributedRun is %d bytes, want at most 264", n)
	}
	if n := unsafe.Sizeof(Attribution{}); n > 112 {
		t.Errorf("Attribution is %d bytes, want at most 112", n)
	}
}

// TestAttributionHoldsNoRun: the attribution the pipeline carries and saves
// beside each completed run holds no run and no placement of its own, so a
// run is held, and saved, once.
func TestAttributionHoldsNoRun(t *testing.T) {
	forbidden := []reflect.Type{reflect.TypeOf(alps.AppRun{}), reflect.TypeOf(machine.Placement{})}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		for _, f := range forbidden {
			if typ == f {
				t.Errorf("Attribution%s is a %v", path, typ)
			}
		}
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		case reflect.Array, reflect.Slice, reflect.Pointer:
			walk(typ.Elem(), path+"[]")
		}
	}
	walk(reflect.TypeOf(Attribution{}), "")
}
