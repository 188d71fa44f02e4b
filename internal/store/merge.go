package store

import (
	"slices"
	"time"

	"logdiver/internal/coalesce"
	"logdiver/internal/core"
	"logdiver/internal/correlate"
	"logdiver/internal/errlog"
	"logdiver/internal/parse"
	"logdiver/internal/wlm"
)

// Snapshot merge: the fleet-scale building block. Each machine shard runs
// its own incremental pipeline and publishes ordinary per-shard snapshots;
// Merge folds any number of them (two at a time) into one fleet snapshot
// carrying a composite epoch vector.
//
// The algebra is exact, not approximate: Merge is associative and
// commutative with Zero as identity, byte-for-byte — including the
// floating-point aggregates. That holds because a merged snapshot is a pure
// function of the canonical run sequence: shard groups are interleaved by
// machine name (each shard's own run order preserved within its group), and
// every aggregate is recomputed from that sequence with the same metrics
// code Build uses. Any merge tree over the same shard set therefore yields
// the same sequence and the same bytes, which is what lets the scatter-
// gather plane fold shards in arbitrary order and still serve views
// identical to a from-scratch analysis of the combined input.
//
// Merging two snapshots that contain the same machine name is a misuse;
// the result is deterministic (left argument's group first) but the
// algebraic laws are not guaranteed.

// ShardEpoch is one component of a fleet epoch vector: the install epoch of
// one machine shard's contribution.
type ShardEpoch struct {
	Machine string `json:"machine"`
	Epoch   uint64 `json:"epoch"`
}

// shardSpans records how many runs/jobs/events each shard contributed to a
// merged snapshot's concatenated Result slices, aligned with Shards.
type shardSpans struct {
	runs, jobs, events, tuples, groups []int
}

// shardGroup is one shard's contribution during a merge walk.
type shardGroup struct {
	se     ShardEpoch
	runs   []correlate.AttributedRun
	jobs   []wlm.Job
	events []errlog.Event
	tuples []coalesce.Tuple
	groups []coalesce.Group
}

// EpochVector returns the snapshot's fleet epoch vector. For a merged
// snapshot it is the stored per-shard vector; for an unmerged snapshot it
// is the single implicit {Machine, Epoch} pair.
func (s *Snapshot) EpochVector() []ShardEpoch {
	if s.Shards != nil {
		return s.Shards
	}
	return []ShardEpoch{{Machine: s.Machine, Epoch: s.Epoch}}
}

// Zero returns the identity element of Merge: a snapshot of no shards at
// all. Merging it with any snapshot s yields a snapshot with s's vector,
// runs and aggregates. Note the difference from an *empty shard* snapshot
// (a real machine whose archives held no runs yet): that one carries a
// machine name and an epoch and contributes a vector entry when merged.
func Zero() *Snapshot {
	return &Snapshot{
		Result:   &core.Result{},
		Shards:   []ShardEpoch{},
		runIndex: map[uint64]int{},
	}
}

// isZero reports whether s is the Merge identity: nil, or an explicitly
// empty epoch vector (only Zero constructs that).
func isZero(s *Snapshot) bool {
	return s == nil || (s.Shards != nil && len(s.Shards) == 0)
}

// cloneMerged lifts s into canonical merged form without copying any bulk
// data: a fresh top-level struct (so installing the result into a fleet
// Store never mutates the shard's own snapshot) whose vector is s's epoch
// vector and whose epoch is unassigned.
func cloneMerged(s *Snapshot) *Snapshot {
	c := *s
	c.Epoch = 0
	c.Machine = ""
	c.Shards = slices.Clone(s.EpochVector())
	if c.spans == nil {
		c.spans = &shardSpans{
			runs:   []int{len(s.Result.Runs)},
			jobs:   []int{len(s.Result.Jobs)},
			events: []int{len(s.Result.Events)},
			tuples: []int{len(s.Result.Tuples)},
			groups: []int{len(s.Result.Groups)},
		}
	}
	return &c
}

// shardGroups slices the snapshot's Result into its per-shard groups, in
// vector order.
func (s *Snapshot) shardGroups() []shardGroup {
	v := s.EpochVector()
	if s.spans == nil {
		return []shardGroup{{
			se:     v[0],
			runs:   s.Result.Runs,
			jobs:   s.Result.Jobs,
			events: s.Result.Events,
			tuples: s.Result.Tuples,
			groups: s.Result.Groups,
		}}
	}
	out := make([]shardGroup, len(v))
	var ro, jo, eo, to, go_ int
	for i := range v {
		nr, nj, ne := s.spans.runs[i], s.spans.jobs[i], s.spans.events[i]
		nt, ng := s.spans.tuples[i], s.spans.groups[i]
		out[i] = shardGroup{
			se:     v[i],
			runs:   s.Result.Runs[ro : ro+nr],
			jobs:   s.Result.Jobs[jo : jo+nj],
			events: s.Result.Events[eo : eo+ne],
			tuples: s.Result.Tuples[to : to+nt],
			groups: s.Result.Groups[go_ : go_+ng],
		}
		ro, jo, eo, to, go_ = ro+nr, jo+nj, eo+ne, to+nt, go_+ng
	}
	return out
}

// mergeGroups interleaves two ordered group lists by machine name. Groups
// only ever reference the source snapshots' slices; no run is copied here.
//
//ldvet:hotpath
func mergeGroups(x, y []shardGroup) []shardGroup {
	out := make([]shardGroup, 0, len(x)+len(y))
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		if x[i].se.Machine <= y[j].se.Machine {
			out = append(out, x[i])
			i++
		} else {
			out = append(out, y[j])
			j++
		}
	}
	out = append(out, x[i:]...)
	return append(out, y[j:]...)
}

// Merge combines two snapshots into one fleet snapshot. It is associative
// and commutative with Zero() as identity (see the package comment above);
// nil arguments are treated as Zero. The result is always a fresh snapshot
// — never an alias of an argument — with Epoch zero until a fleet Store
// installs it, and Partial the OR of the inputs' flags.
func Merge(a, b *Snapshot) *Snapshot {
	if isZero(a) {
		if isZero(b) {
			return Zero()
		}
		return cloneMerged(b)
	}
	if isZero(b) {
		return cloneMerged(a)
	}

	groups := mergeGroups(a.shardGroups(), b.shardGroups())
	var nr, nj, ne, nt, ng int
	for _, g := range groups {
		nr += len(g.runs)
		nj += len(g.jobs)
		ne += len(g.events)
		nt += len(g.tuples)
		ng += len(g.groups)
	}
	ar, br := a.Result, b.Result
	res := &core.Result{
		Runs:   make([]correlate.AttributedRun, 0, nr),
		Jobs:   make([]wlm.Job, 0, nj),
		Events: make([]errlog.Event, 0, ne),
		Tuples: make([]coalesce.Tuple, 0, nt),
		Groups: make([]coalesce.Group, 0, ng),
		Coalesce: coalesce.Stats{
			Raw:     ar.Coalesce.Raw + br.Coalesce.Raw,
			Deduped: ar.Coalesce.Deduped + br.Coalesce.Deduped,
			Tuples:  ar.Coalesce.Tuples + br.Coalesce.Tuples,
			Groups:  ar.Coalesce.Groups + br.Coalesce.Groups,
		},
		Parse: mergeParse(ar.Parse, br.Parse),
		Start: minNonZero(ar.Start, br.Start),
		End:   maxTime(ar.End, br.End),
	}
	spans := &shardSpans{
		runs:   make([]int, 0, len(groups)),
		jobs:   make([]int, 0, len(groups)),
		events: make([]int, 0, len(groups)),
		tuples: make([]int, 0, len(groups)),
		groups: make([]int, 0, len(groups)),
	}
	vec := make([]ShardEpoch, 0, len(groups))
	for _, g := range groups {
		res.Runs = append(res.Runs, g.runs...)
		res.Jobs = append(res.Jobs, g.jobs...)
		res.Events = append(res.Events, g.events...)
		res.Tuples = append(res.Tuples, g.tuples...)
		res.Groups = append(res.Groups, g.groups...)
		spans.runs = append(spans.runs, len(g.runs))
		spans.jobs = append(spans.jobs, len(g.jobs))
		spans.events = append(spans.events, len(g.events))
		spans.tuples = append(spans.tuples, len(g.tuples))
		spans.groups = append(spans.groups, len(g.groups))
		vec = append(vec, g.se)
	}

	m := &Snapshot{
		BuiltAt:  maxTime(a.BuiltAt, b.BuiltAt),
		Result:   res,
		Ingest:   mergeIngest(a.Ingest, b.Ingest),
		Shards:   vec,
		Partial:  a.Partial || b.Partial,
		NumNodes: max(a.NumNodes, b.NumNodes),
		NumXE:    max(a.NumXE, b.NumXE),
		NumXK:    max(a.NumXK, b.NumXK),
		spans:    spans,
	}
	// The bucket bounds are sized to the union topology; for equal-topology
	// shards they equal each shard's own. Both inputs came out of Build, so
	// their extents already passed aggregate: an error here is a
	// programming bug, not an input condition.
	if err := m.aggregate(); err != nil {
		panic(err)
	}
	return m
}

// mergeParse sums two hygiene reports. Per-kind counters add; the retained
// malformed-line samples are per-shard provenance and are dropped from the
// merged view (fetch a ?machine= view to see them), which keeps the merge
// independent of fold order.
//
//ldvet:hotpath
func mergeParse(a, b core.ParseStats) core.ParseStats {
	return core.ParseStats{
		AccountingRecords:   a.AccountingRecords + b.AccountingRecords,
		AccountingMalformed: a.AccountingMalformed + b.AccountingMalformed,
		ApsysLines:          a.ApsysLines + b.ApsysLines,
		ApsysMalformed:      a.ApsysMalformed + b.ApsysMalformed,
		OpenRuns:            a.OpenRuns + b.OpenRuns,
		UnmatchedExits:      a.UnmatchedExits + b.UnmatchedExits,
		DuplicateStarts:     a.DuplicateStarts + b.DuplicateStarts,
		ClampedRuns:         a.ClampedRuns + b.ClampedRuns,
		SyslogLines:         a.SyslogLines + b.SyslogLines,
		SyslogMalformed:     a.SyslogMalformed + b.SyslogMalformed,
		Unclassified:        a.Unclassified + b.Unclassified,
		AccountingDetail:    mergeDetail(a.AccountingDetail, b.AccountingDetail),
		ApsysDetail:         mergeDetail(a.ApsysDetail, b.ApsysDetail),
		SyslogDetail:        mergeDetail(a.SyslogDetail, b.SyslogDetail),
	}
}

//ldvet:hotpath
func mergeDetail(a, b parse.LineStats) parse.LineStats {
	k := a.Kinds
	k.Merge(b.Kinds)
	return parse.LineStats{Kinds: k}
}

// mergeIngest sums ingestion history: the merged snapshot's build cost is
// the total cost of building its parts.
//
//ldvet:hotpath
func mergeIngest(a, b IngestStats) IngestStats {
	return IngestStats{
		Rounds:          a.Rounds + b.Rounds,
		AccountingLines: a.AccountingLines + b.AccountingLines,
		ApsysLines:      a.ApsysLines + b.ApsysLines,
		SyslogLines:     a.SyslogLines + b.SyslogLines,
		Reattributed:    a.Reattributed + b.Reattributed,
		BuildDuration:   a.BuildDuration + b.BuildDuration,
	}
}

func minNonZero(a, b time.Time) time.Time {
	if a.IsZero() {
		return b
	}
	if b.IsZero() || a.Before(b) {
		return a
	}
	return b
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}
