// Package coalesce implements the log preprocessing stages the analysis
// depends on: exact-duplicate removal, per-node temporal tupling (grouping
// bursts of related error records into single error episodes, after Tsao
// and Siewiorek), and spatial coalescing (merging concurrent episodes of
// the same category across nodes into machine-level events, e.g. one Lustre
// outage observed by thousands of clients). Without these stages a single
// fault storm would be counted as thousands of distinct causes and every
// event-rate metric would be inflated.
//
// The pipeline (internal/core) runs only Dedup, which is all attribution
// needs; the readers of tuples and groups — the tables E10, E14 and A3 and
// `logdiver coalesce` — compute them through Pipeline.
package coalesce

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"logdiver/internal/errlog"
	"logdiver/internal/machine"
	"logdiver/internal/taxonomy"
)

// DefaultTemporalWindow is the tupling window: records of the same category
// on the same node closer than this are one episode. Five minutes is the
// conventional choice in the field-study literature.
const DefaultTemporalWindow = 5 * time.Minute

// DefaultSpatialWindow is the cross-node merge window for episodes of the
// same category.
const DefaultSpatialWindow = 2 * time.Minute

// Tuple is one error episode: a maximal burst of same-category events on a
// single node (or machine-wide) with inter-arrival gaps below the tupling
// window.
type Tuple struct {
	// Node is the episode's node, or errlog.SystemWide.
	Node machine.NodeID
	// Category of every event in the episode.
	Category taxonomy.Category
	// Severity is the maximum severity observed in the episode.
	Severity taxonomy.Severity
	// Start and End bound the episode (End equals the last event time).
	Start, End time.Time
	// Count is the number of raw events collapsed into the episode.
	Count int
	// First is the earliest raw event, kept as the representative for
	// evidence chains.
	First errlog.Event
}

// CompareEvents is the order Dedup sorts by: the duplicate key (Time, Node,
// Category, Message), then Cname and Severity. Covering every field of an
// Event makes the order total, so which of a group of duplicates survives —
// the first — depends neither on the sort algorithm nor on how an online
// pipeline cut the stream into rounds.
func CompareEvents(a, b errlog.Event) int { return compareEvents(&a, &b) }

// compareEvents is CompareEvents without copying the events.
func compareEvents(a, b *errlog.Event) int {
	if c := a.Time.Compare(b.Time); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Node, b.Node); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Category, b.Category); c != 0 {
		return c
	}
	if c := strings.Compare(a.Message, b.Message); c != 0 {
		return c
	}
	if c := strings.Compare(a.Cname, b.Cname); c != 0 {
		return c
	}
	return cmp.Compare(a.Severity, b.Severity)
}

// Duplicate reports whether two events share the duplicate key: identical
// (Time, Node, Category, Message).
func Duplicate(a, b errlog.Event) bool {
	return a.Time.Equal(b.Time) && a.Node == b.Node &&
		a.Category == b.Category && a.Message == b.Message
}

// Dedup removes exact duplicates (see Duplicate), keeping the first of each
// group in CompareEvents order. Log forwarders on real systems routinely
// duplicate records. The input is not modified; output is in CompareEvents
// order, hence sorted by time.
func Dedup(events []errlog.Event) []errlog.Event {
	if len(events) == 0 {
		return nil
	}
	sorted := slices.Clone(events)
	sort.Slice(sorted, func(i, j int) bool { return compareEvents(&sorted[i], &sorted[j]) < 0 })
	return slices.CompactFunc(sorted, Duplicate)
}

// Tuples groups events into per-(node, category) episodes using the given
// tupling window. A non-positive window degenerates to one tuple per event.
// Events should be deduplicated first. Output is sorted by start time.
func Tuples(events []errlog.Event, window time.Duration) []Tuple {
	type key struct {
		node machine.NodeID
		cat  taxonomy.Category
	}
	byKey := make(map[key][]errlog.Event)
	for _, e := range events {
		k := key{e.Node, e.Category}
		byKey[k] = append(byKey[k], e)
	}
	var out []Tuple
	for k, evs := range byKey {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Time.Before(evs[j].Time) })
		cur := Tuple{
			Node: k.node, Category: k.cat,
			Severity: evs[0].Severity,
			Start:    evs[0].Time, End: evs[0].Time,
			Count: 1, First: evs[0],
		}
		for _, e := range evs[1:] {
			if window > 0 && e.Time.Sub(cur.End) <= window {
				cur.End = e.Time
				cur.Count++
				if e.Severity > cur.Severity {
					cur.Severity = e.Severity
				}
				continue
			}
			out = append(out, cur)
			cur = Tuple{
				Node: k.node, Category: k.cat,
				Severity: e.Severity,
				Start:    e.Time, End: e.Time,
				Count: 1, First: e,
			}
		}
		out = append(out, cur)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// Group is a machine-level event: episodes of one category on one or more
// nodes overlapping in time (within the spatial window).
type Group struct {
	Category taxonomy.Category
	Severity taxonomy.Severity
	// Start and End bound the union of member episodes.
	Start, End time.Time
	// Nodes lists distinct affected nodes, ascending; empty if the group
	// consists only of system-wide episodes.
	Nodes []machine.NodeID
	// Tuples is the number of member episodes; Events the number of raw
	// events they collapse.
	Tuples int
	Events int
	// SystemWide records whether any member episode was machine-scoped.
	SystemWide bool
}

// Spatial merges same-category tuples whose time spans come within window
// of each other into machine-level groups. Tuples must be sorted by start
// time (as produced by Tuples). Output is sorted by start time.
func Spatial(tuples []Tuple, window time.Duration) []Group {
	byCat := make(map[taxonomy.Category][]Tuple)
	for _, tp := range tuples {
		byCat[tp.Category] = append(byCat[tp.Category], tp)
	}
	var out []Group
	for cat, tps := range byCat {
		sort.Slice(tps, func(i, j int) bool { return tps[i].Start.Before(tps[j].Start) })
		var cur *Group
		var nodes map[machine.NodeID]bool
		flush := func() {
			if cur == nil {
				return
			}
			cur.Nodes = make([]machine.NodeID, 0, len(nodes))
			for n := range nodes {
				cur.Nodes = append(cur.Nodes, n)
			}
			sort.Slice(cur.Nodes, func(i, j int) bool { return cur.Nodes[i] < cur.Nodes[j] })
			out = append(out, *cur)
			cur = nil
		}
		for i := range tps {
			tp := tps[i]
			if cur != nil && tp.Start.Sub(cur.End) <= window {
				if tp.End.After(cur.End) {
					cur.End = tp.End
				}
				if tp.Severity > cur.Severity {
					cur.Severity = tp.Severity
				}
				cur.Tuples++
				cur.Events += tp.Count
				if tp.Node == errlog.SystemWide {
					cur.SystemWide = true
				} else {
					nodes[tp.Node] = true
				}
				continue
			}
			flush()
			g := Group{
				Category: cat,
				Severity: tp.Severity,
				Start:    tp.Start, End: tp.End,
				Tuples: 1, Events: tp.Count,
				SystemWide: tp.Node == errlog.SystemWide,
			}
			nodes = make(map[machine.NodeID]bool)
			if tp.Node != errlog.SystemWide {
				nodes[tp.Node] = true
			}
			cur = &g
		}
		flush()
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].Category < out[j].Category
	})
	return out
}

// Stats summarizes the reduction achieved by the pipeline stages, the
// numbers behind the coalescing-effectiveness experiment.
type Stats struct {
	Raw     int
	Deduped int
	Tuples  int
	Groups  int
}

// ReductionFactor returns raw-to-group compression (0 when empty).
func (s Stats) ReductionFactor() float64 {
	if s.Groups == 0 {
		return 0
	}
	return float64(s.Raw) / float64(s.Groups)
}

// String renders the stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("raw=%d deduped=%d tuples=%d groups=%d (%.1fx reduction)",
		s.Raw, s.Deduped, s.Tuples, s.Groups, s.ReductionFactor())
}

// Pipeline runs tupling and spatial coalescing with the given windows over
// events already deduplicated (as Dedup returns them, and as a core.Result
// holds them) and reports the products and the reduction stats; raw is the
// event count before deduplication (a Result's RawEvents).
func Pipeline(deduped []errlog.Event, raw int, temporal, spatial time.Duration) ([]Tuple, []Group, Stats) {
	tuples := Tuples(deduped, temporal)
	groups := Spatial(tuples, spatial)
	return tuples, groups, Stats{
		Raw:     raw,
		Deduped: len(deduped),
		Tuples:  len(tuples),
		Groups:  len(groups),
	}
}
