package core

// Durable-state export/restore for the incremental pipeline. The state is a
// plain data struct (exported fields, no function values, no unexported
// cycles) so internal/persist can serialize it; configuration — topology,
// location, Options including the classifier — is deliberately NOT part of
// the state. The restoring process supplies its own configuration and the
// persistence layer fingerprints it, so a state file can never smuggle a
// different taxonomy or parse policy into a restarted daemon.

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"logdiver/internal/alps"
	"logdiver/internal/coalesce"
	"logdiver/internal/correlate"
	"logdiver/internal/errlog"
	"logdiver/internal/machine"
	"logdiver/internal/parse"
	"logdiver/internal/wlm"
)

// IncrementalState is the serializable resume state of an Incremental: the
// two assemblers' half-open records, the classified events, cumulative
// parse stats with absolute line provenance, the per-archive line bases, and
// the attribution carry (attr + dirty-job/min-new window bookkeeping), each
// saved as it is held. Restoring it and appending a delta is equivalent to
// having appended the same delta to the original pipeline.
type IncrementalState struct {
	// Jobs is the accounting assembler's job table, in the order the jobs'
	// first records arrived; restore accepts any order.
	Jobs []wlm.Job
	// Alps is the apsys assembler state, including completion order.
	Alps alps.AssemblerState
	// Events is the deduplicated event carry: in coalesce.CompareEvents
	// order, no two of them duplicates.
	Events []errlog.Event
	// Pending are the events appended since the last Result, as appended.
	Pending []errlog.Event
	// DuplicateEvents counts the appended events the carry leaves out, so
	// len(Events)+len(Pending)+DuplicateEvents is the Result's RawEvents.
	DuplicateEvents int
	// Stats is the cumulative ParseStats across all appends.
	Stats ParseStats
	// LineBase holds raw lines consumed per archive, in the fixed order
	// accounting, apsys, syslog; it keeps restored provenance absolute.
	LineBase [3]int
	// Attr[i] is the attribution of Alps.Done[i] at the last Result call
	// (len(Attr) <= len(Alps.Done)).
	Attr []correlate.Attribution
	// DirtyJobs, MinNew and HaveNew carry the re-attribution window of
	// appends no Result has seen yet (normally empty: the daemon
	// persists after sync rounds, which always materialize a Result).
	DirtyJobs []string
	MinNew    time.Time
	HaveNew   bool
	// LastRedo is the re-attribution count of the last Result.
	LastRedo int
}

// State exports the pipeline for persistence. The state shares the
// pipeline's carries instead of copying them, so it is valid until the next
// Append or Result: encode it before then (re-attribution writes the
// attribution in place). A poisoned pipeline (failed strict-mode append) has
// no resumable state and returns its error: the archive position of the
// failure is unrecoverable, so persisting it would checkpoint a pipeline
// that can never make progress.
func (inc *Incremental) State() (*IncrementalState, error) {
	if inc.err != nil {
		return nil, fmt.Errorf("core: cannot persist poisoned pipeline: %w", inc.err)
	}
	st := &IncrementalState{
		Jobs:     slices.Clip(inc.wlmAsm.Jobs()),
		Alps:     inc.alpsAsm.State(),
		Events:   slices.Clip(inc.dedup),
		Pending:  slices.Clip(inc.pending),
		Stats:    inc.stats,
		LineBase: inc.lineBase,
		Attr:     slices.Clip(inc.attr),
		MinNew:   inc.minNew,
		HaveNew:  inc.haveNew,
		LastRedo: inc.lastRedo,
	}
	st.DuplicateEvents = inc.raw - len(st.Events) - len(st.Pending)
	if len(inc.dirtyJobs) > 0 {
		st.DirtyJobs = make([]string, 0, len(inc.dirtyJobs))
		for id := range inc.dirtyJobs {
			st.DirtyJobs = append(st.DirtyJobs, id)
		}
		sort.Strings(st.DirtyJobs)
	}
	return st, nil
}

// RestoreIncremental rebuilds a pipeline from a persisted state under the
// caller's configuration (same semantics as NewIncremental). The pipeline
// copies st's job table and takes over its runs, event carry and
// attribution. Structural invariants are validated — attribution cannot
// outrun completion, line bases cannot be negative, job IDs are present and
// unique, the event carry is sorted — so a corrupt state surfaces here
// instead of as skewed analysis output.
func RestoreIncremental(top *machine.Topology, loc *time.Location, opts Options, st *IncrementalState) (*Incremental, error) {
	if st == nil {
		return nil, fmt.Errorf("core: nil incremental state")
	}
	inc, err := NewIncremental(top, loc, opts)
	if err != nil {
		return nil, err
	}
	if len(st.Attr) > len(st.Alps.Done) {
		return nil, fmt.Errorf("core: restore: %d attributions for %d completed runs", len(st.Attr), len(st.Alps.Done))
	}
	for i, b := range st.LineBase {
		if b < 0 {
			return nil, fmt.Errorf("core: restore: negative line base %d for archive %d", b, i)
		}
	}
	if st.DuplicateEvents < 0 {
		return nil, fmt.Errorf("core: restore: negative duplicate event count %d", st.DuplicateEvents)
	}
	for i := 1; i < len(st.Events); i++ {
		if coalesce.CompareEvents(st.Events[i-1], st.Events[i]) >= 0 || coalesce.Duplicate(st.Events[i-1], st.Events[i]) {
			return nil, fmt.Errorf("core: restore: event carry out of order or duplicated at %d", i)
		}
	}
	wlmAsm, err := wlm.RestoreAssembler(st.Jobs)
	if err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	alpsAsm, err := alps.RestoreAssembler(st.Alps)
	if err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	alpsAsm.SetLenient(inc.opts.ParseMode == parse.Lenient)
	inc.wlmAsm = wlmAsm
	inc.alpsAsm = alpsAsm
	inc.dedup = st.keptEvents()
	inc.raw = len(st.Events) + len(st.Pending) + st.DuplicateEvents
	inc.stats = st.Stats
	inc.lineBase = st.LineBase
	done := alpsAsm.Done()
	inc.attr = st.Attr
	// The aggregate and the span are derived, not persisted: refold them.
	for i := range inc.attr {
		run := correlate.AttributedRun{AppRun: done[i], Attribution: inc.attr[i]}
		if run.Outcome < correlate.OutcomeSuccess || run.Outcome > correlate.OutcomeSystemFailure {
			return nil, fmt.Errorf("core: restore: run %d has outcome %v", i, run.Outcome)
		}
		inc.agg.Add(&run)
		inc.span.cover(&done[i])
	}
	for _, id := range st.DirtyJobs {
		inc.dirtyJobs[id] = struct{}{}
	}
	inc.minNew = st.MinNew
	inc.haveNew = st.HaveNew
	inc.lastRedo = st.LastRedo
	return inc, nil
}

// EventCounts returns the events a Result of the state's pipeline keeps and
// the raw events it counts, without restoring the pipeline.
func (st *IncrementalState) EventCounts() (kept, raw int) {
	return len(st.keptEvents()), len(st.Events) + len(st.Pending) + st.DuplicateEvents
}

// keptEvents folds the deduplicated pending events into the carry, as the
// next Result would; with none pending it is the carry itself.
func (st *IncrementalState) keptEvents() []errlog.Event {
	return mergeSorted(slices.Clip(st.Events), coalesce.Dedup(st.Pending), coalesce.CompareEvents, coalesce.Duplicate)
}
