package store

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"logdiver/internal/alps"
	"logdiver/internal/coalesce"
	"logdiver/internal/core"
	"logdiver/internal/correlate"
	"logdiver/internal/errlog"
	"logdiver/internal/machine"
	"logdiver/internal/metrics"
	"logdiver/internal/wlm"
)

// TestSnapshotCannotRetainBulk walks every type reachable from Snapshot and
// fails on anything that could hold more than one job record, event, tuple
// or group per run: a slice, array, map or pointer of one, or an interface
// or func (which could hide any of them). AttributedRun.Evidence, one event by
// value, is the only way in.
func TestSnapshotCannotRetainBulk(t *testing.T) {
	bulk := map[reflect.Type]bool{
		reflect.TypeOf(wlm.Job{}):        true,
		reflect.TypeOf(errlog.Event{}):   true,
		reflect.TypeOf(coalesce.Tuple{}): true,
		reflect.TypeOf(coalesce.Group{}): true,
	}
	seen := map[reflect.Type]bool{}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		if seen[ty] {
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Interface, reflect.Func, reflect.UnsafePointer:
			t.Errorf("%s (%s) can hold anything", path, ty)
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		case reflect.Map:
			walk(path+"[key]", ty.Key())
			fallthrough
		case reflect.Slice, reflect.Array, reflect.Pointer, reflect.Chan:
			if bulk[ty.Elem()] {
				t.Errorf("%s (%s) can retain pipeline bulk data", path, ty)
			}
			walk(path+"[]", ty.Elem())
		}
	}
	walk("Snapshot", reflect.TypeOf(Snapshot{}))
	if !seen[reflect.TypeOf(correlate.AttributedRun{})] || !seen[reflect.TypeOf(errlog.Event{})] {
		t.Fatal("walk never reached the runs and their evidence: it checks nothing")
	}
}

// pageSnapshot builds a snapshot over n runs whose apids are deliberately
// NOT in slice order, so the pagination tests prove RunsPage sorts rather
// than echoing ingestion order.
func pageSnapshot(t *testing.T, apids []uint64) *Snapshot {
	t.Helper()
	top, err := machine.New(machine.Small())
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	runs := make([]correlate.AttributedRun, len(apids))
	for i, apid := range apids {
		runs[i] = correlate.AttributedRun{
			AppRun: alps.AppRun{
				ApID:      apid,
				Placement: machine.Placement{{Lo: machine.NodeID(i % 8), Hi: machine.NodeID(i % 8)}},
				Start:     base.Add(time.Duration(i) * time.Minute),
				End:       base.Add(time.Duration(i+1) * time.Minute),
			},
			Attribution: correlate.Attribution{Class: machine.ClassXE, Outcome: correlate.OutcomeSuccess},
		}
	}
	snap, err := Build(&core.Result{Runs: runs, Agg: metrics.Fold(runs)}, top, IngestStats{}, base)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestRunsPage(t *testing.T) {
	// Apids 2,4,...,40 shuffled: pages must come back sorted ascending.
	apids := make([]uint64, 20)
	for i := range apids {
		apids[i] = uint64(2 * (i + 1))
	}
	rand.New(rand.NewSource(7)).Shuffle(len(apids), func(i, j int) {
		apids[i], apids[j] = apids[j], apids[i]
	})
	snap := pageSnapshot(t, apids)
	if snap.TotalRuns() != 20 {
		t.Fatalf("TotalRuns = %d, want 20", snap.TotalRuns())
	}

	tests := []struct {
		name      string
		after     uint64
		limit     int
		wantFirst uint64
		wantN     int
		wantLast  uint64
	}{
		{"first page", 0, 5, 2, 5, 10},
		{"middle page", 10, 5, 12, 5, 20},
		{"cursor between apids", 11, 5, 12, 5, 20},
		{"last partial page", 36, 5, 38, 2, 40},
		{"exactly at end", 40, 5, 0, 0, 0},
		{"beyond end", 1000, 5, 0, 0, 0},
		{"max cursor", ^uint64(0), 5, 0, 0, 0},
		{"limit covers all", 0, 100, 2, 20, 40},
		{"zero limit", 0, 0, 0, 0, 0},
		{"negative limit", 0, -3, 0, 0, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			runs, last := snap.RunsPage(tc.after, tc.limit)
			if len(runs) != tc.wantN || last != tc.wantLast {
				t.Fatalf("RunsPage(%d, %d) = %d runs, last %d; want %d runs, last %d",
					tc.after, tc.limit, len(runs), last, tc.wantN, tc.wantLast)
			}
			if tc.wantN == 0 {
				return
			}
			if runs[0].ApID != tc.wantFirst {
				t.Errorf("first apid %d, want %d", runs[0].ApID, tc.wantFirst)
			}
			for i := 1; i < len(runs); i++ {
				if runs[i].ApID <= runs[i-1].ApID {
					t.Fatalf("page not strictly ascending at %d: %d then %d", i, runs[i-1].ApID, runs[i].ApID)
				}
			}
		})
	}

	// A full traversal via cursors visits every run exactly once.
	seen := make(map[uint64]bool)
	cursor := uint64(0)
	for {
		runs, last := snap.RunsPage(cursor, 3)
		if len(runs) == 0 {
			break
		}
		for _, r := range runs {
			if seen[r.ApID] {
				t.Fatalf("apid %d returned twice", r.ApID)
			}
			seen[r.ApID] = true
		}
		cursor = last
	}
	if len(seen) != 20 {
		t.Fatalf("traversal saw %d runs, want 20", len(seen))
	}
}

// TestRepeatedApIDs pins what a snapshot does with an apid that occurs more
// than once (corrupted archives in lenient mode; the same apid on two shards
// of a fleet): every run counts, the drill-down resolves the apid to its
// first run in Result.Runs order, and the listing shows that first run once
// per occurrence — the behaviour of the map-backed index this one replaced.
// Listed runs are the snapshot's own, not copies.
func TestRepeatedApIDs(t *testing.T) {
	apids := []uint64{50, 30, 50, 90, 30, 50, 10}
	snap := pageSnapshot(t, apids)
	if snap.TotalRuns() != len(apids) {
		t.Fatalf("TotalRuns %d, want %d", snap.TotalRuns(), len(apids))
	}
	firstOf := map[uint64]int{}
	for i := len(apids) - 1; i >= 0; i-- {
		firstOf[apids[i]] = i
	}
	for apid, i := range firstOf {
		got, ok := snap.Run(apid)
		if !ok || !got.Start.Equal(snap.Result.Runs[i].Start) {
			t.Errorf("Run(%d) = run starting %s, %v; want its first run, index %d", apid, got.Start.Format("15:04"), ok, i)
		}
	}
	if _, ok := snap.Run(40); ok {
		t.Error("Run(40) resolved an apid no run has")
	}
	wantOrder := []uint64{10, 30, 30, 50, 50, 50, 90}
	for limit := 1; limit <= len(apids); limit++ {
		var got []uint64
		// Page through with the documented cursor. A page that ends inside a
		// group of equal apids makes the next one skip the rest of the group,
		// so only the full listing shows every occurrence.
		runs, _ := snap.RunsPage(0, limit)
		for k, r := range runs {
			got = append(got, r.ApID)
			if r != &snap.Result.Runs[firstOf[r.ApID]] {
				t.Errorf("limit %d entry %d: apid %d listed as the run starting %s, want its first run in Result.Runs", limit, k, r.ApID, r.Start.Format("15:04"))
			}
		}
		if !slices.Equal(got, wantOrder[:limit]) {
			t.Errorf("limit %d: listing %v, want %v", limit, got, wantOrder[:limit])
		}
	}
}
