package core

// The expand-and-walk join, kept as the oracle of the range-based one: every
// placement is expanded to its node IDs, each node's time-sorted event list
// is searched once, and each node's class is looked up — the join as it ran
// when placements were node lists. The pipeline's attribution must DeepEqual
// it.

import (
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"logdiver/internal/alps"
	"logdiver/internal/correlate"
	"logdiver/internal/errlog"
	"logdiver/internal/gen"
	"logdiver/internal/machine"
	"logdiver/internal/mutate"
	"logdiver/internal/taxonomy"
	"logdiver/internal/wlm"
)

// walkIndex holds every event, per node and system-wide, each list in time
// order with same-instant events in input order.
type walkIndex struct {
	perNode map[machine.NodeID][]errlog.Event
	system  []errlog.Event
}

func newWalkIndex(events []errlog.Event) *walkIndex {
	all := slices.Clone(events)
	slices.SortStableFunc(all, func(a, b errlog.Event) int { return a.Time.Compare(b.Time) })
	ix := &walkIndex{perNode: make(map[machine.NodeID][]errlog.Event)}
	for _, e := range all {
		if e.IsSystemWide() {
			ix.system = append(ix.system, e)
		} else {
			ix.perNode[e.Node] = append(ix.perNode[e.Node], e)
		}
	}
	return ix
}

// first returns the earliest event matching keep on nodes or system-wide in
// [from, to]: each node's first match in turn, replaced only by a strictly
// earlier one, then the first system-wide match if strictly earlier still.
func (ix *walkIndex) first(nodes []machine.NodeID, from, to time.Time, keep func(errlog.Event) bool) (errlog.Event, bool) {
	var best errlog.Event
	var found bool
	consider := func(evs []errlog.Event) {
		lo := sort.Search(len(evs), func(i int) bool { return !evs[i].Time.Before(from) })
		for _, e := range evs[lo:] {
			if e.Time.After(to) {
				return
			}
			if keep(e) {
				if !found || e.Time.Before(best.Time) {
					best, found = e, true
				}
				return
			}
		}
	}
	for _, n := range nodes {
		consider(ix.perNode[n])
	}
	consider(ix.system)
	return best, found
}

// expandAndWalk attributes res's runs again with the oracle join, under the
// default correlation windows and the given job table.
func expandAndWalk(res *Result, table []wlm.Job, top *machine.Topology) []correlate.AttributedRun {
	cfg := correlate.DefaultConfig()
	ix := newWalkIndex(res.Events)
	jobs := make(map[string]wlm.Job, len(table))
	for _, j := range table {
		jobs[j.ID] = j
	}
	out := make([]correlate.AttributedRun, len(res.Runs))
	for i, r := range res.Runs {
		run := r.AppRun
		nodes := run.Placement.Nodes()
		a := correlate.AttributedRun{AppRun: run, Attribution: correlate.Attribution{Class: machine.ClassXE, Nodes: int32(len(nodes))}}
		for _, n := range nodes {
			if node, err := top.Node(n); err == nil && node.Class == machine.ClassXK {
				a.Class = machine.ClassXK
				break
			}
		}
		if !run.Failed() {
			a.Outcome = correlate.OutcomeSuccess
			out[i] = a
			continue
		}
		from := run.End.Add(-cfg.EvidenceWindow)
		if from.Before(run.Start) {
			from = run.Start
		}
		keep := func(e errlog.Event) bool {
			if e.Category.Benign() || e.Severity < taxonomy.SevError {
				return false
			}
			return !e.IsSystemWide() || e.Category.Group() != taxonomy.GroupInterconnect || len(nodes) >= cfg.QuiesceMinNodes
		}
		job, known := jobs[run.JobID]
		switch ev, ok := ix.first(nodes, from, run.End.Add(cfg.PostWindow), keep); {
		case ok:
			a.Outcome, a.Cause, a.Evidence, a.HasEvidence = correlate.OutcomeSystemFailure, ev.Category, ev, true
		case (run.Signal == 15 || run.Signal == 9) && known && job.Walltime > 0 && job.UsedWalltime >= job.Walltime-2*time.Minute:
			a.Outcome = correlate.OutcomeWalltime
		default:
			a.Outcome = correlate.OutcomeUserFailure
		}
		out[i] = a
	}
	return out
}

// requireExpandAndWalk fails unless res's attribution equals the oracle's
// over the jobs a fresh assembler builds from the accounting archive acc.
func requireExpandAndWalk(t *testing.T, name string, res *Result, acc string, top *machine.Topology) {
	t.Helper()
	want := expandAndWalk(res, assembledJobs(t, []byte(acc), top, Options{}), top)
	if reflect.DeepEqual(res.Runs, want) {
		return
	}
	for i := range want {
		if !reflect.DeepEqual(res.Runs[i], want[i]) {
			t.Fatalf("%s: run %d (apid %d) attributed %+v\nexpand-and-walk %+v", name, i, want[i].ApID, res.Runs[i], want[i])
		}
	}
	t.Fatalf("%s: %d runs, expand-and-walk %d", name, len(res.Runs), len(want))
}

// TestAttributionMatchesExpandAndWalk: the range-based join decides every run
// as the expand-and-walk oracle does, on clean and corrupted archives of the
// small machine and on ten days of the full topology.
func TestAttributionMatchesExpandAndWalk(t *testing.T) {
	ds := testDataset(t)
	acc, aps, sys := archiveText(t, ds)
	macc, maps, msys, _ := mutateAll(acc, aps, sys, mutate.Config{Seed: 17, Budget: 0.005, MaxPerOp: 4})
	for name, a := range map[string][3]string{"test dataset": {acc, aps, sys}, "mutated": {macc, maps, msys}} {
		res, err := Analyze(archivesOf(a[0], a[1], a[2]), ds.Topology, Options{})
		if err != nil {
			t.Fatal(err)
		}
		requireExpandAndWalk(t, name, res, a[0], ds.Topology)
	}
	cfgs := []gen.Config{}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := gen.Small(4)
		cfg.Seed = seed
		cfgs = append(cfgs, cfg)
	}
	if !testing.Short() {
		cfgs = append(cfgs, gen.Scaled(10))
	}
	for _, cfg := range cfgs {
		ds, err := gen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		acc, aps, sys := archiveText(t, ds)
		res, err := Analyze(archivesOf(acc, aps, sys), ds.Topology, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var system int
		for _, r := range res.Runs {
			if r.HasEvidence {
				system++
			}
		}
		if system == 0 {
			t.Fatalf("%d nodes, seed %d: no run has evidence; the comparison would be vacuous", ds.Topology.NumNodes(), cfg.Seed)
		}
		requireExpandAndWalk(t, "generated", res, acc, ds.Topology)
	}
}

// TestEvidenceTieRule pins the evidence among same-instant matches: a node
// event beats a system-wide one, the lowest node ID wins among node events,
// and a system-wide event wins only when strictly earlier.
func TestEvidenceTieRule(t *testing.T) {
	top, err := machine.New(machine.Small())
	if err != nil {
		t.Fatal(err)
	}
	end := time.Date(2013, 4, 3, 12, 0, 0, 0, time.UTC)
	at := end.Add(-time.Minute)
	later := time.Hour // run 3 and its events, outside the others' windows
	run := func(apid uint64, end time.Time, ids ...machine.NodeID) alps.AppRun {
		return alps.AppRun{ApID: apid, JobID: "1.bw", Placement: machine.PlacementOf(ids), Start: end.Add(-time.Hour), End: end, ExitCode: 1}
	}
	ev := func(node machine.NodeID, t time.Time, cat taxonomy.Category) errlog.Event {
		return errlog.Event{Time: t, Node: node, Category: cat, Severity: taxonomy.SevCritical, Message: cat.String()}
	}
	runs := []alps.AppRun{
		run(1, end, 10, 11, 12, 20), // two nodes and the machine at one instant
		run(2, end, 30),             // its node and the machine at one instant
		run(3, end.Add(later), 40),  // the machine strictly earlier than its node
	}
	events := []errlog.Event{
		ev(20, at, taxonomy.HardwareMemoryUE),
		ev(11, at, taxonomy.NodeHeartbeat),
		ev(11, at, taxonomy.KernelPanic),
		ev(errlog.SystemWide, at, taxonomy.FilesystemLBUG),
		ev(30, at, taxonomy.HardwareMemoryUE),
		ev(40, at.Add(later), taxonomy.HardwareMemoryUE),
		ev(errlog.SystemWide, at.Add(later-time.Second), taxonomy.FilesystemLBUG),
	}
	res, err := AnalyzeParsed(nil, runs, events, top, Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireExpandAndWalk(t, "tie fixture", res, "", top)
	for i, want := range []errlog.Event{
		res.Events[slices.IndexFunc(res.Events, func(e errlog.Event) bool { return e.Node == 11 })],
		events[4],
		events[6],
	} {
		if got := res.Runs[i]; !got.HasEvidence || got.Evidence != want {
			t.Errorf("run %d: evidence %+v, want %+v", got.ApID, got.Evidence, want)
		}
	}
}
