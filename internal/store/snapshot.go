// Package store holds the serving state of the online subsystem: immutable,
// epoch-versioned snapshots of the served part of the pipeline output (the
// attributed runs and their aggregates), installed by atomic
// pointer swap so query handlers never block on — and never observe a torn
// state from — the ingestion goroutine. The package also provides the
// Tailer (chunked reading of growing, rotating archives) and the Syncer
// that drives one tail-append-rebuild-install round.
package store

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"logdiver/internal/core"
	"logdiver/internal/correlate"
	"logdiver/internal/machine"
	"logdiver/internal/metrics"
)

// IngestStats describes the ingestion history behind a snapshot.
type IngestStats struct {
	// Rounds counts Sync rounds that appended data (not no-op polls).
	Rounds int `json:"rounds"`
	// AccountingLines, ApsysLines and SyslogLines are cumulative raw line
	// counts consumed from each archive.
	AccountingLines int `json:"accounting_lines"`
	ApsysLines      int `json:"apsys_lines"`
	SyslogLines     int `json:"syslog_lines"`
	// Reattributed is the number of runs the snapshot's build round
	// re-attributed (the windowed-reattribution cost of the round).
	Reattributed int `json:"reattributed"`
	// BuildDuration is the wall-clock cost of the round, from the first
	// appended byte to the built snapshot. AppendDuration (parsing and folding
	// the new bytes) and ResultDuration (re-attribution and the sorted merges)
	// are the stages inside it; the rest is the snapshot's aggregates.
	BuildDuration  time.Duration `json:"build_duration_ns"`
	AppendDuration time.Duration `json:"append_duration_ns"`
	ResultDuration time.Duration `json:"result_duration_ns"`
	// MergeDuration is the wall-clock cost of the fleet merge that produced
	// a merged snapshot: the fleet manager stamps it there and nowhere else,
	// so it is zero on every shard's own snapshot and is not summed.
	MergeDuration time.Duration `json:"merge_duration_ns"`
}

// Retained is the part of a pipeline Result a snapshot keeps: the runs every
// served view derives from, plus the counts, hygiene and span /v1/health
// reports. It has no field that could hold job records or events, so no
// snapshot — one per shard per epoch, plus the merged one — can pin them in
// the heap.
type Retained struct {
	// Runs are the attributed application runs, in start order (per shard,
	// shards in machine-name order, on a merged snapshot).
	Runs []correlate.AttributedRun
	// NumJobs and NumEvents count the assembled batch jobs and the
	// deduplicated classified error events behind the runs.
	NumJobs, NumEvents int
	// Parse reports archive hygiene.
	Parse core.ParseStats
	// Start and End bound the observed activity (zero when there are no
	// runs).
	Start, End time.Time
}

// Snapshot is one immutable view of the analyzed archive state. All fields
// are computed at build time; readers share the snapshot freely and must
// not mutate it.
type Snapshot struct {
	// Epoch is the monotonically increasing install sequence number,
	// assigned by Store.Install (1 for the first snapshot).
	Epoch uint64
	// BuiltAt is when the snapshot was materialized.
	BuiltAt time.Time
	// Result is what the snapshot keeps of the pipeline output; the views
	// below render from agg, the exact aggregate of its Runs.
	Result Retained
	// Outcomes is the E2 outcome breakdown over all runs.
	Outcomes metrics.OutcomeBreakdown
	// Categories is the per-category failure attribution (E7 shape).
	Categories []metrics.CategoryShare
	// ScalingXE and ScalingXK are the failure-probability-versus-scale
	// curves per node class (E4/E5 shape), over geometric buckets sized to
	// the topology.
	ScalingXE, ScalingXK []metrics.ScaleBucket
	// MTTI is mean-time-to-interrupt by scale over all classes.
	MTTI []metrics.MTTIBucket
	// Ingest describes how the data got here.
	Ingest IngestStats

	// agg is the exact aggregate of Result.Runs every view above renders
	// from: the Result's own for a shard, the sum of the parts' on a merged
	// snapshot.
	agg metrics.Aggregate

	// Machine names the shard this snapshot was built from. Empty for
	// merged (fleet) snapshots and for callers of Build that never set it;
	// the Syncer stamps its configured shard name.
	Machine string
	// Shards is the fleet epoch vector of a merged snapshot: one
	// {machine, epoch} pair per contributing shard, sorted by machine
	// name. Nil on unmerged snapshots (their implicit vector is the
	// single {Machine, Epoch} pair — see EpochVector). Because the vector
	// is part of the immutable snapshot, a fleet read can never observe a
	// mix of per-shard epochs: every view is rendered from exactly one
	// vector.
	Shards []ShardEpoch
	// Partial marks a merged snapshot that is missing one or more
	// configured shards (failed or not yet synced). Always false on
	// unmerged snapshots.
	Partial bool
	// NumNodes, NumXE and NumXK are the topology extents the scaling and
	// MTTI bucket bounds were derived from. Merge uses them to rebucket
	// when two snapshots were built against different topologies.
	NumNodes, NumXE, NumXK int

	// parts lists, aligned with Shards, the unmerged snapshots a merged
	// snapshot was folded from. Nil on unmerged snapshots. Merge re-sorts
	// the parts of its arguments by machine name, so a merged snapshot is a
	// function of its part set alone, whatever the merge tree.
	parts []*Snapshot

	// byApID lists every run as an (apid, index into Result.Runs) pair in
	// ascending (apid, index) order, so a binary search for an apid lands on
	// its first run: the drill-down index. It also backs the paginated
	// /v1/runs listing: apids are assigned at submission and never
	// renumbered by re-attribution, so this ordering is stable across
	// epochs — a client paging through runs while the epoch advances sees
	// each run at most once per traversal, plus any newly ingested runs
	// whose apids sort after its cursor.
	byApID []apidRef
}

// apidRef is one entry of Snapshot.byApID.
type apidRef struct {
	apid uint64
	run  int
}

func (p apidRef) compareApID(apid uint64) int { return cmp.Compare(p.apid, apid) }

// Build derives a Snapshot from a pipeline Result, keeping res.Runs and
// res.Agg (shared, not copied), res.NumJobs and the length of res.Events.
// The views render from res.Agg, which must be the aggregate of res.Runs.
// The epoch is zero until Store.Install assigns it.
func Build(res *core.Result, top *machine.Topology, ing IngestStats, at time.Time) (*Snapshot, error) {
	if res == nil {
		return nil, fmt.Errorf("store: nil result")
	}
	if top == nil {
		return nil, fmt.Errorf("store: nil topology")
	}
	if n := res.Agg.Runs(); n != len(res.Runs) {
		return nil, fmt.Errorf("store: result aggregate covers %d runs, the result has %d", n, len(res.Runs))
	}
	s := &Snapshot{
		BuiltAt: at,
		Result: Retained{
			Runs:      res.Runs,
			NumJobs:   res.NumJobs,
			NumEvents: len(res.Events),
			Parse:     res.Parse,
			Start:     res.Start,
			End:       res.End,
		},
		Ingest:   ing,
		NumNodes: top.NumNodes(),
		NumXE:    top.NumXE(),
		NumXK:    top.NumXK(),
		agg:      res.Agg,
		byApID:   indexApIDs(res.Runs),
	}
	if err := s.render(); err != nil {
		return nil, err
	}
	return s, nil
}

// render derives every served view from the aggregate and the topology
// extents. Build and Merge both end here, so a merged snapshot's views are
// by construction what Build would render over the same runs.
func (s *Snapshot) render() error {
	s.Outcomes = s.agg.Outcomes()
	s.Categories = s.agg.Categories()
	var err error
	if s.ScalingXE, err = s.agg.Scaling(metrics.GeometricBuckets(s.NumXE), machine.ClassXE); err != nil {
		return fmt.Errorf("store: xe scaling: %w", err)
	}
	if s.ScalingXK, err = s.agg.Scaling(metrics.GeometricBuckets(s.NumXK), machine.ClassXK); err != nil {
		return fmt.Errorf("store: xk scaling: %w", err)
	}
	if s.MTTI, err = s.agg.MTTI(metrics.GeometricBuckets(s.NumNodes), 0); err != nil {
		return fmt.Errorf("store: mtti: %w", err)
	}
	return nil
}

// indexApIDs returns the byApID index of runs.
//
// Apids repeat only in corrupted archives (lenient mode) or across the
// shards of a misconfigured fleet; every run still counts in the aggregates
// and in TotalRuns, and the listing and /v1/runs/{apid} resolve a repeated
// apid to its first run.
func indexApIDs(runs []correlate.AttributedRun) []apidRef {
	refs, spare := make([]apidRef, len(runs)), make([]apidRef, len(runs))
	var differ uint64 // the bits in which any two apids differ
	for i := range runs {
		refs[i] = apidRef{runs[i].ApID, i}
		differ |= runs[i].ApID ^ runs[0].ApID
	}
	// Stable byte-wise radix sort on apid, least significant byte first, over
	// the bytes that differ: refs start in index order, so ties end up in it.
	for shift := 0; shift < 64; shift += 8 {
		if byte(differ>>shift) == 0 {
			continue
		}
		var next [256]int
		for _, p := range refs {
			next[byte(p.apid>>shift)]++
		}
		at := 0
		for b, n := range next {
			next[b], at = at, at+n
		}
		for _, p := range refs {
			b := byte(p.apid >> shift)
			spare[next[b]] = p
			next[b]++
		}
		refs, spare = spare, refs
	}
	return refs
}

// TotalRuns is the number of runs in the snapshot.
func (s *Snapshot) TotalRuns() int { return len(s.byApID) }

// RunsPage returns up to limit runs whose apid is strictly greater than
// afterApID, in ascending apid order, plus the apid of the last returned run
// (0 when the page is empty). Page with afterApID=0 for the first page and
// feed each page's last apid back in for the next; the ordering is stable
// across epochs, so a traversal never shows the same run twice. The runs
// are pointers into the snapshot's immutable Result.Runs, not copies; a
// repeated apid shows its first run at every occurrence.
func (s *Snapshot) RunsPage(afterApID uint64, limit int) (runs []*correlate.AttributedRun, last uint64) {
	if limit <= 0 {
		return nil, 0
	}
	if afterApID == ^uint64(0) { // cursor at the maximum apid: nothing follows
		return nil, 0
	}
	// First apid strictly greater than the cursor.
	i, _ := slices.BinarySearchFunc(s.byApID, afterApID+1, apidRef.compareApID)
	end := min(i+limit, len(s.byApID))
	if i >= end {
		return nil, 0
	}
	runs = make([]*correlate.AttributedRun, 0, end-i)
	first := s.byApID[i] // a page starts at the first pair of its apid
	for _, p := range s.byApID[i:end] {
		if p.apid != first.apid {
			first = p
		}
		runs = append(runs, &s.Result.Runs[first.run])
	}
	return runs, s.byApID[end-1].apid
}

// Run returns the attributed run with the given apid, if present.
func (s *Snapshot) Run(apid uint64) (correlate.AttributedRun, bool) {
	i, ok := slices.BinarySearchFunc(s.byApID, apid, apidRef.compareApID)
	if !ok {
		return correlate.AttributedRun{}, false
	}
	return s.Result.Runs[s.byApID[i].run], true
}
