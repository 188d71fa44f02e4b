package core

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
	"time"

	"logdiver/internal/correlate"
)

// TestRestoreSharesPlacements: after State, a gob round trip (what the state
// file holds) and RestoreIncremental, every attributed run shares its
// placement with the assembler's run, as in a pipeline that never restarted,
// instead of holding a second decoded copy, and the restored pipeline's
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
	done := restored.alpsAsm.Done()
	if len(done) == 0 || len(restored.attr) != len(done) {
		t.Fatalf("%d attributed runs for %d completed", len(restored.attr), len(done))
	}
	for i, a := range restored.attr {
		d := done[i]
		if len(d.Placement) == 0 || &a.Placement[0] != &d.Placement[0] {
			t.Fatalf("run %d (apid %d): attributed placement %p is not the assembler's %p", i, d.ApID, a.Placement, d.Placement)
		}
	}
	got, err := restored.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Runs, want.Runs) {
		t.Error("the restored pipeline's runs differ from the original's")
	}
}

// TestRestoreRejectsUnknownOutcome: the restored aggregate is refolded from
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
