// Package interval provides the node-time index at the heart of the
// error-to-application join: given the full stream of classified error
// events, it answers "which events occurred on any of these nodes (or
// machine-wide) during this time window" in logarithmic time per node.
// This is what makes attributing errors to five million application runs
// tractable.
package interval

import (
	"slices"
	"sort"
	"time"

	"logdiver/internal/errlog"
	"logdiver/internal/machine"
)

// Index holds classified events organized per node and sorted by time.
// Per-node lists live in a dense array indexed by NodeID: the attribution
// join probes millions of (node, window) pairs and a map would dominate
// its cost.
type Index struct {
	perNode   [][]errlog.Event
	nodeCount int
	system    []errlog.Event
	all       []errlog.Event
	total     int
}

// byTime orders events by timestamp alone; ties keep their input order.
func byTime(a, b errlog.Event) int { return a.Time.Compare(b.Time) }

// NewIndex builds an index over events. The input slice is not retained;
// events are grouped by node and each group is in time order, events of the
// same instant in input order. That makes the evidence a search returns among
// same-instant matches a function of the input order — for the pipeline, the
// order coalesce.Dedup leaves — and the same whether the index covers the
// whole stream or only a suffix of it. Time-sorted input (what Dedup returns)
// is grouped without sorting again.
func NewIndex(events []errlog.Event) *Index {
	ix := &Index{all: slices.Clone(events)}
	if !slices.IsSortedFunc(ix.all, byTime) {
		slices.SortStableFunc(ix.all, byTime)
	}
	var maxNode machine.NodeID = -1
	for _, e := range events {
		if !e.IsSystemWide() && e.Node > maxNode {
			maxNode = e.Node
		}
	}
	ix.perNode = make([][]errlog.Event, maxNode+1)
	for _, e := range ix.all {
		if e.IsSystemWide() {
			ix.system = append(ix.system, e)
		} else {
			if len(ix.perNode[e.Node]) == 0 {
				ix.nodeCount++
			}
			ix.perNode[e.Node] = append(ix.perNode[e.Node], e)
		}
		ix.total++
	}
	return ix
}

// nodeEvents returns the sorted event list for a node (nil when the node
// has none or is out of range).
func (ix *Index) nodeEvents(n machine.NodeID) []errlog.Event {
	if n < 0 || int(n) >= len(ix.perNode) {
		return nil
	}
	return ix.perNode[n]
}

// Len returns the total number of indexed events.
func (ix *Index) Len() int { return ix.total }

// Nodes returns the number of distinct nodes with at least one event.
func (ix *Index) Nodes() int { return ix.nodeCount }

// sliceWindow returns the subslice of evs with Time in [from, to].
// evs must be sorted by time.
func sliceWindow(evs []errlog.Event, from, to time.Time) []errlog.Event {
	lo := sort.Search(len(evs), func(i int) bool { return !evs[i].Time.Before(from) })
	hi := sort.Search(len(evs), func(i int) bool { return evs[i].Time.After(to) })
	if lo >= hi {
		return nil
	}
	return evs[lo:hi]
}

// Window collects all events relevant to an application run placed on the
// given nodes during [from, to]: per-node events on those nodes plus
// system-wide events. Results are returned in time order. The returned
// slice is freshly allocated.
func (ix *Index) Window(nodes []machine.NodeID, from, to time.Time) []errlog.Event {
	var out []errlog.Event
	for _, n := range nodes {
		if evs := sliceWindow(ix.nodeEvents(n), from, to); len(evs) > 0 {
			out = append(out, evs...)
		}
	}
	if evs := sliceWindow(ix.system, from, to); len(evs) > 0 {
		out = append(out, evs...)
	}
	slices.SortStableFunc(out, byTime)
	return out
}

// FirstAnywhere returns the earliest event matching keep anywhere on the
// machine during [from, to], ignoring placement. This serves the
// temporal-only attribution baseline.
func (ix *Index) FirstAnywhere(from, to time.Time, keep func(errlog.Event) bool) (errlog.Event, bool) {
	for _, e := range sliceWindow(ix.all, from, to) {
		if keep(e) {
			return e, true
		}
	}
	return errlog.Event{}, false
}

// FirstInWindow returns the earliest event matching keep on the given nodes
// or system-wide during [from, to].
func (ix *Index) FirstInWindow(nodes []machine.NodeID, from, to time.Time, keep func(errlog.Event) bool) (errlog.Event, bool) {
	var best errlog.Event
	var found bool
	consider := func(evs []errlog.Event) {
		for _, e := range evs {
			if !keep(e) {
				continue
			}
			if !found || e.Time.Before(best.Time) {
				best = e
				found = true
			}
			break // evs is time-sorted: first match is earliest in this group
		}
	}
	for _, n := range nodes {
		consider(sliceWindow(ix.nodeEvents(n), from, to))
	}
	consider(sliceWindow(ix.system, from, to))
	return best, found
}
