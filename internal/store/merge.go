package store

import (
	"slices"
	"strings"
	"time"

	"logdiver/internal/correlate"
	"logdiver/internal/parse"
)

// Snapshot merge: the fleet-scale building block. Each machine shard runs
// its own incremental pipeline and publishes ordinary per-shard snapshots;
// Merge folds any number of them, in one call, into one fleet snapshot
// carrying a composite epoch vector.
//
// The algebra is exact, not approximate: Merge is associative and
// commutative with Zero as identity, byte-for-byte — including the
// floating-point views. Two things make that hold. A merged snapshot
// remembers the unmerged snapshots it was folded from as a part list sorted
// by machine name, and everything order-dependent in it is one fold over
// that list: the runs are the parts' runs concatenated in list order (each
// shard's own run order preserved), and the apid index is the parts' sorted
// indexes merged, with run offsets, into the order sorting the concatenation
// would give. And every aggregate is an exact integer sum: the counts,
// hygiene and ingest history add, and so does each part's
// metrics.Aggregate, whose integer counts and nanoseconds have no summation
// order to depend on; the views render from the summed aggregate with the
// same code Build uses, so a merge costs the concatenation plus the index
// merge, never a walk over the runs. Merge gathers its arguments' part lists
// and sorts them by machine name, so any merge tree over the same shard set
// — one n-ary call or any nesting of smaller ones — yields the same list and
// the same bytes, which is what lets the scatter-gather plane fold shards in
// arbitrary order and still serve views identical to a from-scratch analysis
// of the combined input. The parts are immutable and the fleet view holds
// them anyway; the list costs one pointer per shard.
//
// Merging snapshots that contain the same machine name is a misuse; the
// result is deterministic (the earlier argument's part first) but the
// algebraic laws are not guaranteed.

// ShardEpoch is one component of a fleet epoch vector: the install epoch of
// one machine shard's contribution.
type ShardEpoch struct {
	Machine string `json:"machine"`
	Epoch   uint64 `json:"epoch"`
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
	return &Snapshot{Shards: []ShardEpoch{}}
}

// leaves returns the unmerged snapshots s stands for, sorted by machine
// name: its part list when merged (empty for the identity), itself
// otherwise. A nil snapshot is the identity.
func (s *Snapshot) leaves() []*Snapshot {
	switch {
	case s == nil:
		return nil
	case s.Shards == nil:
		return []*Snapshot{s}
	}
	return s.parts
}

// Merge combines any number of snapshots into one fleet snapshot. It is
// associative and commutative with Zero() as identity (see the package
// comment above); nil arguments are treated as Zero, and Merge() is Zero().
// The result is always a fresh snapshot — never an alias of an argument —
// with Epoch zero until a fleet Store installs it, and Partial the OR of
// the inputs' flags.
func Merge(snaps ...*Snapshot) *Snapshot {
	parts := make([]*Snapshot, 0, len(snaps))
	var last *Snapshot // the last of the args arguments that are not the identity
	args, partial := 0, false
	for _, s := range snaps {
		if l := s.leaves(); len(l) > 0 {
			parts = append(parts, l...)
			args, last = args+1, s
			partial = partial || s.Partial
		}
	}
	switch args {
	case 0:
		return Zero()
	case 1:
		// Every other argument is the identity: lift this one into merged
		// form without copying a run. The fresh top-level struct keeps a
		// fleet Store's Install from touching the shard's own snapshot.
		c := *last
		c.Epoch, c.Machine = 0, ""
		c.Shards = slices.Clone(last.EpochVector())
		c.parts = parts
		return &c
	}
	slices.SortStableFunc(parts, func(x, y *Snapshot) int { return strings.Compare(x.Machine, y.Machine) })

	m := &Snapshot{
		Shards:  make([]ShardEpoch, 0, len(parts)),
		Partial: partial,
		parts:   parts,
		byApID:  mergeIndexes(parts),
	}
	nruns := 0
	for _, p := range m.parts {
		nruns += len(p.Result.Runs)
	}
	res := &m.Result
	res.Runs = make([]correlate.AttributedRun, 0, nruns)
	for _, p := range m.parts {
		pr := &p.Result
		m.Shards = append(m.Shards, ShardEpoch{Machine: p.Machine, Epoch: p.Epoch})
		res.Runs = append(res.Runs, pr.Runs...)
		res.NumJobs += pr.NumJobs
		res.NumEvents += pr.NumEvents
		res.Parse.Add(pr.Parse)
		res.Start = minNonZero(res.Start, pr.Start)
		res.End = maxTime(res.End, pr.End)
		m.BuiltAt = maxTime(m.BuiltAt, p.BuiltAt)
		m.Ingest = mergeIngest(m.Ingest, p.Ingest)
		m.NumNodes = max(m.NumNodes, p.NumNodes)
		m.NumXE = max(m.NumXE, p.NumXE)
		m.NumXK = max(m.NumXK, p.NumXK)
		m.agg.Merge(&p.agg)
	}
	// The retained malformed-line samples are per-shard provenance: the
	// merged view drops them (fetch a ?machine= view to see them), which
	// keeps the merge independent of fold order.
	for _, d := range []*parse.LineStats{&res.Parse.AccountingDetail, &res.Parse.ApsysDetail, &res.Parse.SyslogDetail} {
		d.Samples = parse.SampleSet{}
	}
	// The bucket bounds are sized to the union topology; for equal-topology
	// shards they equal each shard's own. Every part came out of Build, so
	// its extents already passed render: an error here is a programming
	// bug, not an input condition.
	if err := m.render(); err != nil {
		panic(err)
	}
	return m
}

// mergeIndexes merges the parts' apid indexes into the index of their
// concatenated runs. A part's run indices shift by the runs of the parts
// before it, so each part's index is one sorted segment; adjacent segments
// are merged pairwise, the left one first on equal apids, until one is left.
// That is the (apid, index) order sorting the concatenation would give.
func mergeIndexes(parts []*Snapshot) []apidRef {
	n := 0
	for _, p := range parts {
		n += len(p.byApID)
	}
	refs, spare := make([]apidRef, 0, n), make([]apidRef, n)
	bounds := make([]int, 0, 16) // segment i is refs[bounds[i]:bounds[i+1]]
	off := 0
	for _, p := range parts {
		bounds = append(bounds, len(refs))
		for _, r := range p.byApID {
			refs = append(refs, apidRef{r.apid, r.run + off})
		}
		off += len(p.Result.Runs)
	}
	bounds = append(bounds, n)
	for len(bounds) > 2 {
		k := len(bounds) - 1 // segments
		for j := 0; 2*j < k; j++ {
			lo, mid := bounds[2*j], bounds[2*j+1]
			hi := mid
			if 2*j+2 <= k {
				hi = bounds[2*j+2]
			}
			mergeRefs(spare[lo:hi], refs[lo:mid], refs[mid:hi])
			bounds[j] = lo
		}
		bounds[(k+1)/2] = n
		bounds = bounds[:(k+1)/2+1]
		refs, spare = spare, refs
	}
	return refs
}

// mergeRefs merges the sorted a and b into dst, a first on equal apids.
func mergeRefs(dst, a, b []apidRef) {
	k := 0
	for len(a) > 0 && len(b) > 0 {
		if b[0].apid < a[0].apid {
			dst[k], b = b[0], b[1:]
		} else {
			dst[k], a = a[0], a[1:]
		}
		k++
	}
	k += copy(dst[k:], a)
	copy(dst[k:], b)
}

// mergeIngest sums ingestion history: the merged snapshot's build cost is
// the total cost of building its parts.
func mergeIngest(a, b IngestStats) IngestStats {
	return IngestStats{
		Rounds:          a.Rounds + b.Rounds,
		AccountingLines: a.AccountingLines + b.AccountingLines,
		ApsysLines:      a.ApsysLines + b.ApsysLines,
		SyslogLines:     a.SyslogLines + b.SyslogLines,
		Reattributed:    a.Reattributed + b.Reattributed,
		BuildDuration:   a.BuildDuration + b.BuildDuration,
		AppendDuration:  a.AppendDuration + b.AppendDuration,
		ResultDuration:  a.ResultDuration + b.ResultDuration,
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
