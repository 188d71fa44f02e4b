package core

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"logdiver/internal/alps"
	"logdiver/internal/correlate"
	"logdiver/internal/errlog"
	"logdiver/internal/machine"
	"logdiver/internal/raceflag"
	"logdiver/internal/taxonomy"
	"logdiver/internal/wlm"
)

// TestRestoreSharesPlacements: after State, a gob round trip (what the state
// file holds) and RestoreIncremental, every run of the restored pipeline's
// Result shares its placement with the assembler's run, as in a pipeline
// that never restarted, instead of holding a second decoded copy, and that
// Result is the original's.
func TestRestoreSharesPlacements(t *testing.T) {
	top := testDataset(t).Topology
	acc, aps, sys := testArchiveText(t)
	inc, err := NewIncremental(top, time.UTC, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Append(Delta{Accounting: []byte(acc), Apsys: []byte(aps), Syslog: []byte(sys)}); err != nil {
		t.Fatal(err)
	}
	want, err := inc.Result()
	if err != nil {
		t.Fatal(err)
	}
	st, err := inc.State()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	var decoded IncrementalState
	if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreIncremental(top, time.UTC, Options{}, &decoded)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Runs, want.Runs) {
		t.Fatal("the restored pipeline's runs differ from the original's")
	}
	done := restored.alpsAsm.Done()
	if len(done) == 0 || len(restored.order) != len(got.Runs) {
		t.Fatalf("%d ordered runs for %d in the Result", len(restored.order), len(got.Runs))
	}
	for k, i := range restored.order {
		r, d := &got.Runs[k], &done[i]
		if len(d.Placement) == 0 || &r.Placement[0] != &d.Placement[0] {
			t.Fatalf("run %d (apid %d): placement %p is not the assembler's %p", k, d.ApID, r.Placement, d.Placement)
		}
	}
}

// TestRestoreRejectsUnknownOutcome: the restored aggregate is rebuilt from
// the attribution, whose outcomes index its rows, so a state whose
// attribution names no outcome is refused like any other structural
// corruption instead of surfacing as a panic in the fold.
func TestRestoreRejectsUnknownOutcome(t *testing.T) {
	top := testDataset(t).Topology
	acc, aps, sys := testArchiveText(t)
	inc, err := NewIncremental(top, time.UTC, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Append(Delta{Accounting: []byte(acc), Apsys: []byte(aps), Syslog: []byte(sys)}); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Result(); err != nil {
		t.Fatal(err)
	}
	st, err := inc.State()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreIncremental(top, time.UTC, Options{}, st); err != nil {
		t.Fatalf("the untouched state does not restore: %v", err)
	}
	for _, o := range []correlate.Outcome{0, correlate.OutcomeSystemFailure + 1} {
		st.Attr[len(st.Attr)/2].Outcome = o
		if _, err := RestoreIncremental(top, time.UTC, Options{}, st); err == nil {
			t.Errorf("a run with outcome %v restored", o)
		}
	}
}

// TestRestoreRejectsUnsortedCarries: restore takes the saved event carry
// over as a sorted carry and the job table as the assembler's, keyed by job
// ID, so a state whose carry is out of order or repeats an event, or whose
// table repeats a job or holds one without an ID, is refused, not restored
// to a pipeline whose merges or job lookups would go wrong.
func TestRestoreRejectsUnsortedCarries(t *testing.T) {
	top := testDataset(t).Topology
	acc, aps, sys := testArchiveText(t)
	state := func() *IncrementalState {
		inc, err := NewIncremental(top, time.UTC, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inc.Append(Delta{Accounting: []byte(acc), Apsys: []byte(aps), Syslog: []byte(sys)}); err != nil {
			t.Fatal(err)
		}
		if _, err := inc.Result(); err != nil {
			t.Fatal(err)
		}
		st, err := inc.State()
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Jobs) < 2 || len(st.Events) < 2 {
			t.Fatalf("fixture: %d jobs, %d events", len(st.Jobs), len(st.Events))
		}
		return st
	}
	for _, tc := range []struct {
		name  string
		spoil func(*IncrementalState)
	}{
		{"job repeated", func(st *IncrementalState) { st.Jobs[1] = st.Jobs[0] }},
		{"job with empty ID", func(st *IncrementalState) { st.Jobs[1].ID = "" }},
		{"events out of order", func(st *IncrementalState) { st.Events[0], st.Events[1] = st.Events[1], st.Events[0] }},
		{"event repeated", func(st *IncrementalState) { st.Events[1] = st.Events[0] }},
	} {
		st := state()
		tc.spoil(st)
		if _, err := RestoreIncremental(top, time.UTC, Options{}, st); err == nil {
			t.Errorf("%s: restored", tc.name)
		}
	}
}

// TestRestoresParentLayout: the layout before the event carry and the
// pending batch were kept apart held each attribution as a flat 264-byte
// run whose AppRun was zero and the raw event stream in append order,
// duplicates included, in Events. The persistence layer refuses such files
// by their format version before it decodes them; should a state in that
// layout reach RestoreIncremental anyway, its unsorted, duplicated event
// carry is refused, never restored to a skewed analysis. A state in the
// current layout round-trips gob and restores to a pipeline whose Result
// equals Analyze over the same bytes, RawEvents included.
func TestRestoresParentLayout(t *testing.T) {
	type parentRun struct { // correlate.AttributedRun before the split
		alps.AppRun
		Class       machine.NodeClass
		Outcome     correlate.Outcome
		Cause       taxonomy.Category
		Evidence    errlog.Event
		Nodes       int32
		HasEvidence bool
	}
	type parentState struct { // IncrementalState before the split
		Jobs      []wlm.Job
		Alps      alps.AssemblerState
		Events    []errlog.Event
		Stats     ParseStats
		LineBase  [3]int
		Attr      []parentRun
		DirtyJobs []string
		MinNew    time.Time
		HaveNew   bool
		LastRedo  int
	}
	top := testDataset(t).Topology
	acc, aps, sys := testArchiveText(t)
	// The first append holds the syslog's first three quarters. The second,
	// which no Result has seen when the state is taken, holds the last
	// quarter (new events) and the second quarter again (duplicates).
	lines := strings.SplitAfter(sys, "\n")
	q := len(lines) / 4
	first := strings.Join(lines[:3*q], "")
	echo := strings.Join(lines[q:2*q], "")
	second := strings.Join(lines[3*q:], "") + echo
	inc, err := NewIncremental(top, time.UTC, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Append(Delta{Accounting: []byte(acc), Apsys: []byte(aps), Syslog: []byte(first)}); err != nil {
		t.Fatal(err)
	}
	early, err := inc.Result()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Append(Delta{Syslog: []byte(second)}); err != nil {
		t.Fatal(err)
	}
	st, err := inc.State()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Analyze(Archives{Accounting: strings.NewReader(acc), Apsys: strings.NewReader(aps),
		Syslog: strings.NewReader(sys + echo), Location: time.UTC}, top, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want.RawEvents <= len(want.Events) || len(want.Events) <= len(early.Events) || len(st.Attr) != len(want.Runs) {
		t.Fatalf("fixture: %d raw events for %d kept (%d before the second append), %d attributed runs for %d: no duplicates or new events pending, or runs unattributed",
			want.RawEvents, len(want.Events), len(early.Events), len(st.Attr), len(want.Runs))
	}
	roundTrip := func(in, out any) {
		t.Helper()
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(in); err != nil {
			t.Fatal(err)
		}
		if err := gob.NewDecoder(&buf).Decode(out); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("parent-to-current", func(t *testing.T) {
		var raw []errlog.Event
		for _, text := range []string{first, second} {
			evs, _, _, err := ingest(Archives{Syslog: strings.NewReader(text), Location: time.UTC}, top, Options{}.withDefaults(), nil, alps.NewAssembler())
			if err != nil {
				t.Fatal(err)
			}
			raw = append(raw, evs...)
		}
		old := parentState{Jobs: st.Jobs, Alps: st.Alps, Events: raw, Stats: st.Stats, LineBase: st.LineBase,
			DirtyJobs: st.DirtyJobs, MinNew: st.MinNew, HaveNew: st.HaveNew, LastRedo: st.LastRedo}
		for _, a := range st.Attr {
			old.Attr = append(old.Attr, parentRun{Class: a.Class, Outcome: a.Outcome, Cause: a.Cause,
				Evidence: a.Evidence, Nodes: a.Nodes, HasEvidence: a.HasEvidence})
		}
		var decoded IncrementalState
		roundTrip(old, &decoded)
		if _, err := RestoreIncremental(top, time.UTC, Options{}, &decoded); err == nil || !strings.Contains(err.Error(), "event carry") {
			t.Fatalf("a parent-layout state restored with error %v, want the event carry refused", err)
		}
	})

	t.Run("current", func(t *testing.T) {
		var decoded IncrementalState
		roundTrip(st, &decoded)
		restored, err := RestoreIncremental(top, time.UTC, Options{}, &decoded)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Result()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			diffResult(t, 0, got, want)
		}
	})
}

// TestStateAllocCeiling bounds what State allocates: the open-run container
// and small change. The job table, the completed runs, the event carry and
// the attribution are shared, never copied; a State that copied any of them
// would allocate well past the bound. It holds after a Result and between an
// Append that touched a job and the next Result alike.
func TestStateAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("measures a full pipeline fixture")
	}
	if raceflag.Enabled {
		t.Skip("allocation volume is not meaningful under the race detector")
	}
	acc, aps, sys := testArchiveText(t)
	inc, err := NewIncremental(testDataset(t).Topology, time.UTC, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Append(Delta{Accounting: []byte(acc), Apsys: []byte(aps), Syslog: []byte(sys)}); err != nil {
		t.Fatal(err)
	}
	res, err := inc.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) < 1000 || len(res.Events) < len(res.Runs) {
		t.Fatalf("fixture has %d runs and %d events: too small to tell a bulk copy from noise", len(res.Runs), len(res.Events))
	}
	measure := func(what string) {
		t.Helper()
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		st, err := inc.State()
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		ceiling := (uint64(unsafe.Sizeof(IncrementalState{})) + uint64(len(st.Alps.Open))*uint64(unsafe.Sizeof(alps.AppRun{}))) * 3 / 2
		if got := m1.TotalAlloc - m0.TotalAlloc; got > ceiling {
			t.Errorf("State %s over %d runs, %d jobs (%d dirty), %d events allocated %d bytes, ceiling %d",
				what, len(st.Alps.Done), len(st.Jobs), len(st.DirtyJobs), len(st.Events), got, ceiling)
		}
	}
	measure("after a Result")
	if _, err := inc.Append(Delta{Accounting: lastEndRecord(t, acc)}); err != nil {
		t.Fatal(err)
	}
	if len(inc.dirtyJobs) != 1 {
		t.Fatalf("re-appending an E record left %d dirty jobs, want 1", len(inc.dirtyJobs))
	}
	measure("with a dirty job")
}

// TestRestoresParentJobOrder: the parent layout saved the job table sorted
// by start time, then ID; the table is now saved in first-seen order and the
// format version did not change. A state whose table is in the old order
// restores, and after one more append its Result equals Analyze over the
// same bytes.
func TestRestoresParentJobOrder(t *testing.T) {
	top := testDataset(t).Topology
	acc, aps, sys := testArchiveText(t)
	accC, apsC, sysC := splitChunks(acc, 2), splitChunks(aps, 2), splitChunks(sys, 2)
	inc, err := NewIncremental(top, time.UTC, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Append(Delta{Accounting: accC[0], Apsys: apsC[0], Syslog: sysC[0]}); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Result(); err != nil {
		t.Fatal(err)
	}
	st, err := inc.State()
	if err != nil {
		t.Fatal(err)
	}
	parent := *st
	parent.Jobs = slices.Clone(st.Jobs)
	slices.SortFunc(parent.Jobs, func(a, b wlm.Job) int {
		if c := a.StartedAt.Compare(b.StartedAt); c != 0 {
			return c
		}
		return strings.Compare(a.ID, b.ID)
	})
	if slices.EqualFunc(parent.Jobs, st.Jobs, func(a, b wlm.Job) bool { return a.ID == b.ID }) {
		t.Fatal("fixture: the first-seen order is the parent's order, nothing to tell apart")
	}
	restored, err := RestoreIncremental(top, time.UTC, Options{}, &parent)
	if err != nil {
		t.Fatalf("a state with the parent's job order does not restore: %v", err)
	}
	if _, err := restored.Append(Delta{Accounting: accC[1], Apsys: apsC[1], Syslog: sysC[1]}); err != nil {
		t.Fatal(err)
	}
	got, err := restored.Result()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Analyze(archivesOf(acc, aps, sys), top, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		diffResult(t, 1, got, want)
	}
	requireJobTable(t, "restored from the parent's order", restored, []byte(acc))
}
