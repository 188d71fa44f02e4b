// Package interval provides the event index at the heart of the
// error-to-application join: given the stream of classified error events,
// it answers "which is the first qualifying event on any of these nodes (or
// machine-wide) during this time window". A search slices the time-sorted
// events to the window once and tests each for membership in the run's
// placement, so its cost is the events in the window times log(ranges),
// whatever the run's size. This is what makes attributing errors to five
// million application runs tractable.
package interval

import (
	"slices"
	"sort"
	"time"

	"logdiver/internal/errlog"
	"logdiver/internal/machine"
	"logdiver/internal/taxonomy"
)

// Index holds the events that can explain a failure (see Qualifying), sorted
// by time.
type Index struct {
	all []errlog.Event
}

// byTime orders events by timestamp alone; ties keep their input order.
func byTime(a, b errlog.Event) int { return a.Time.Compare(b.Time) }

// Qualifying reports whether an event can explain an application failure:
// non-benign category with severity at least SevError. No other event enters
// an index.
func Qualifying(e errlog.Event) bool {
	return !e.Category.Benign() && e.Severity >= taxonomy.SevError
}

// NewIndex builds an index over the qualifying events. The input slice is
// not retained; events are in time order, events of the same instant in
// input order. That makes the evidence a search returns among same-instant
// matches a function of the input order — for the pipeline, the order
// coalesce.Dedup leaves — and the same whether the index covers the whole
// stream or only a suffix of it. Time-sorted input (what Dedup returns) is
// not sorted again.
func NewIndex(events []errlog.Event) *Index {
	ix := &Index{all: make([]errlog.Event, 0, len(events))}
	for _, e := range events {
		if Qualifying(e) {
			ix.all = append(ix.all, e)
		}
	}
	if !slices.IsSortedFunc(ix.all, byTime) {
		slices.SortStableFunc(ix.all, byTime)
	}
	return ix
}

// Len returns the number of indexed events.
func (ix *Index) Len() int { return len(ix.all) }

// window returns the indexed events with Time in [from, to].
func (ix *Index) window(from, to time.Time) []errlog.Event {
	evs := ix.all
	lo := sort.Search(len(evs), func(i int) bool { return !evs[i].Time.Before(from) })
	hi := lo + sort.Search(len(evs)-lo, func(i int) bool { return evs[lo+i].Time.After(to) })
	return evs[lo:hi]
}

// FirstAnywhere returns the earliest event matching keep anywhere on the
// machine during [from, to], ignoring placement. This serves the
// temporal-only attribution baseline.
func (ix *Index) FirstAnywhere(from, to time.Time, keep func(errlog.Event) bool) (errlog.Event, bool) {
	for _, e := range ix.window(from, to) {
		if keep(e) {
			return e, true
		}
	}
	return errlog.Event{}, false
}

// FirstInWindow returns the earliest event matching keep on a node of p or
// system-wide during [from, to]. Among matches of the earliest instant a
// node event beats a system-wide one, the lowest node ID wins among node
// events, and input order decides the rest.
func (ix *Index) FirstInWindow(p machine.Placement, from, to time.Time, keep func(errlog.Event) bool) (errlog.Event, bool) {
	evs := ix.window(from, to)
	best := -1
	for i := range evs {
		e := &evs[i]
		if best >= 0 && !e.Time.Equal(evs[best].Time) {
			break // past the earliest matching instant
		}
		if !e.IsSystemWide() && !p.Contains(e.Node) || !keep(*e) {
			continue
		}
		if best < 0 || better(e, &evs[best]) {
			best = i
		}
	}
	if best < 0 {
		return errlog.Event{}, false
	}
	return evs[best], true
}

// better reports whether a beats b, a match of the same instant that comes
// earlier in input order.
func better(a, b *errlog.Event) bool {
	if a.IsSystemWide() {
		return false
	}
	return b.IsSystemWide() || a.Node < b.Node
}
