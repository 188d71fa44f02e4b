package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"logdiver/internal/coalesce"
	"logdiver/internal/core"
	"logdiver/internal/correlate"
	"logdiver/internal/report"
	"logdiver/internal/taxonomy"
)

// blastIndex supports the two queries E14 needs against the run population:
// how many runs were active at an instant, and which attributed failures
// ended inside a window.
type blastIndex struct {
	starts []time.Time // sorted run start times
	ends   []time.Time // sorted run end times
	// failures sorted by end time.
	failEnds  []time.Time
	failCause []taxonomy.Group
}

func newBlastIndex(runs []correlate.AttributedRun) *blastIndex {
	ix := &blastIndex{
		starts: make([]time.Time, 0, len(runs)),
		ends:   make([]time.Time, 0, len(runs)),
	}
	for _, r := range runs {
		ix.starts = append(ix.starts, r.Start)
		ix.ends = append(ix.ends, r.End)
		if r.Outcome == correlate.OutcomeSystemFailure {
			ix.failEnds = append(ix.failEnds, r.End)
			ix.failCause = append(ix.failCause, r.Cause.Group())
		}
	}
	sortTimes(ix.starts)
	sortTimes(ix.ends)
	// failEnds/failCause must sort together.
	idx := make([]int, len(ix.failEnds))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return ix.failEnds[idx[a]].Before(ix.failEnds[idx[b]]) })
	sortedEnds := make([]time.Time, len(idx))
	sortedCause := make([]taxonomy.Group, len(idx))
	for i, j := range idx {
		sortedEnds[i] = ix.failEnds[j]
		sortedCause[i] = ix.failCause[j]
	}
	ix.failEnds, ix.failCause = sortedEnds, sortedCause
	return ix
}

func sortTimes(ts []time.Time) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
}

func countBefore(ts []time.Time, t time.Time) int {
	return sort.Search(len(ts), func(i int) bool { return ts[i].After(t) })
}

// active returns the number of runs executing at t.
func (ix *blastIndex) active(t time.Time) int {
	return countBefore(ix.starts, t) - countBefore(ix.ends, t)
}

// killedBy counts attributed system failures of the given cause group whose
// end falls in [from, to].
func (ix *blastIndex) killedBy(group taxonomy.Group, from, to time.Time) int {
	lo := sort.Search(len(ix.failEnds), func(i int) bool { return !ix.failEnds[i].Before(from) })
	var n int
	for i := lo; i < len(ix.failEnds) && !ix.failEnds[i].After(to); i++ {
		if ix.failCause[i] == group {
			n++
		}
	}
	return n
}

// E14BlastRadius measures, for every machine-level error event (coalesced
// group), how many applications were running when it struck and how many
// it took down — the paper's "one Lustre outage kills hundreds of
// applications" observation, quantified per category.
func E14BlastRadius(res *core.Result) *report.Table {
	ix := newBlastIndex(res.Runs)
	const postWindow = 10 * time.Minute

	type agg struct {
		events      int
		totalKilled int
		maxKilled   int
		totalActive int
	}
	byGroup := make(map[taxonomy.Group]*agg)
	var worstKilled int
	var worstGroup taxonomy.Group
	var worstAt time.Time
	_, machineEvents, _ := coalesced(res, coalesce.DefaultTemporalWindow)
	for _, g := range machineEvents {
		if g.Severity < taxonomy.SevError || g.Category.Benign() {
			continue
		}
		grp := g.Category.Group()
		a := byGroup[grp]
		if a == nil {
			a = &agg{}
			byGroup[grp] = a
		}
		active := ix.active(g.Start)
		killed := ix.killedBy(grp, g.Start.Add(-time.Minute), g.End.Add(postWindow))
		a.events++
		a.totalActive += active
		a.totalKilled += killed
		if killed > a.maxKilled {
			a.maxKilled = killed
		}
		if killed > worstKilled {
			worstKilled = killed
			worstGroup = grp
			worstAt = g.Start
		}
	}

	t := &report.Table{
		ID:      "E14",
		Title:   "Blast radius of machine-level error events",
		Columns: []string{"category group", "events", "mean active apps", "mean killed", "max killed"},
	}
	groups := make([]taxonomy.Group, 0, len(byGroup))
	for grp := range byGroup {
		groups = append(groups, grp)
	}
	// Most kills first; the group name breaks ties, since map order is random.
	slices.SortFunc(groups, func(a, b taxonomy.Group) int {
		return cmp.Or(cmp.Compare(byGroup[b].totalKilled, byGroup[a].totalKilled), cmp.Compare(a.String(), b.String()))
	})
	for _, grp := range groups {
		a := byGroup[grp]
		t.AddRow(grp.String(), report.Count(a.events),
			report.F1(float64(a.totalActive)/float64(a.events)),
			report.F1(float64(a.totalKilled)/float64(a.events)),
			report.Count(a.maxKilled))
	}
	if worstKilled > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"worst single event: %s at %s killed %d applications",
			worstGroup, worstAt.Format("2006-01-02 15:04"), worstKilled))
	}
	t.Notes = append(t.Notes,
		"killed = attributed system failures of the same cause group ending within the event window +10m")
	return t
}
