package core

// Incremental ingestion: the online counterpart of Analyze. A long-running
// service tails growing archives and appends each new chunk of raw log
// text; the Incremental keeps the persistent parse state (the accounting
// and apsys assemblers, whose half-open records span append boundaries, the
// classified event stream, and the cumulative ParseStats with absolute line
// provenance) and, on demand, materializes a *Result equal to what a
// from-scratch Analyze over the concatenated input would produce — for work
// proportional to what was appended plus one copy of the runs, with no sort
// and no re-attribution of history.
//
// The re-attribution window: a run's attribution depends on the event index
// only inside [End-EvidenceWindow, End+PostWindow] (Attribute clamps the
// search to at most EvidenceWindow before the end), so an appended event with
// timestamp t can only change runs whose End lies in
// [t-PostWindow, t+EvidenceWindow]. Result therefore re-attributes exactly
// (a) runs completed since the last Result, (b) runs whose End is at or after
// minNewEventTime-(EvidenceWindow+PostWindow), and (c) runs whose batch job
// saw new accounting records (walltime-kill detection reads the job record),
// against an index of only the events those runs can see.
//
// The sorted carries: jobs, deduplicated events and the run order stay in
// output order between rounds. Each order is total (wlm.CompareJobs,
// coalesce.CompareEvents, alps.ByStart), so sorting only a round's own batch
// and folding it in with mergeSorted lands on the very sequence a sort of
// everything gives. The carries are derived, not persisted: a restored
// pipeline sorts its job table once and starts with the other two empty, so
// its first Result merges everything in.
// TestIncrementalMatchesAnalyze and TestIncrementalSchedule assert exact
// Result equality against the batch pipeline after every round.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"logdiver/internal/alps"
	"logdiver/internal/coalesce"
	"logdiver/internal/correlate"
	"logdiver/internal/errlog"
	"logdiver/internal/interval"
	"logdiver/internal/machine"
	"logdiver/internal/parse"
	"logdiver/internal/wlm"
)

// Delta is one append of raw archive bytes. Every field may be empty; the
// bytes must end on a line boundary (a tailer holds back partial lines).
type Delta struct {
	Accounting, Apsys, Syslog []byte
}

// Empty reports whether the delta carries no bytes at all.
func (d Delta) Empty() bool {
	return len(d.Accounting) == 0 && len(d.Apsys) == 0 && len(d.Syslog) == 0
}

// AppendStats summarizes one Append round.
type AppendStats struct {
	// AccountingLines, ApsysLines and SyslogLines count the raw lines
	// consumed this round (including malformed and blank lines).
	AccountingLines, ApsysLines, SyslogLines int
	// Events counts the classified error events added this round.
	Events int
	// RunsCompleted is the cumulative completed-run count after the round.
	RunsCompleted int
}

// Incremental accumulates appended archive chunks and materializes
// pipeline Results with windowed re-attribution. It is not safe for
// concurrent use; the serving layer runs one ingestion goroutine and
// publishes immutable snapshots instead.
type Incremental struct {
	top  *machine.Topology
	opts Options
	loc  *time.Location

	wlmAsm  *wlm.Assembler
	alpsAsm *alps.Assembler
	events  []errlog.Event
	stats   ParseStats
	// lineBase holds the raw lines already consumed per archive, so sample
	// and strict-error line numbers stay absolute across appends.
	lineBase [3]int

	// attr mirrors alpsAsm.Done() (completion order) with the attribution
	// of the last Result call; done[len(attr):] are not yet attributed. No
	// Result shares it, so re-attribution writes it in place.
	attr []correlate.AttributedRun
	// The sorted carries: order is the indices of attr in alps.ByStart order,
	// jobs the assembled jobs, dedup the coalesce.Dedup of events[:folded].
	// Returned Results share a clipped prefix of jobs and dedup, which are
	// therefore extended or replaced, never written.
	order  []int
	jobs   []wlm.Job
	dedup  []errlog.Event
	folded int
	// dirtyJobs are batch jobs with new accounting records since the last
	// Result; minNew/haveNew track the earliest new event timestamp.
	dirtyJobs map[string]struct{}
	minNew    time.Time
	haveNew   bool
	// lastRedo is the number of runs the last Result re-attributed.
	lastRedo int

	err error
}

// NewIncremental returns an empty incremental pipeline. loc interprets
// accounting timestamps (UTC when nil); opts follows Analyze semantics,
// with the zero value selecting the study defaults.
func NewIncremental(top *machine.Topology, loc *time.Location, opts Options) (*Incremental, error) {
	if top == nil {
		return nil, fmt.Errorf("core: nil topology")
	}
	opts = opts.withDefaults()
	inc := &Incremental{
		top:       top,
		opts:      opts,
		loc:       loc,
		wlmAsm:    wlm.NewAssembler(),
		alpsAsm:   alps.NewAssembler(),
		jobs:      []wlm.Job{}, // non-nil when empty, like Assembler.Jobs
		dirtyJobs: make(map[string]struct{}),
	}
	inc.alpsAsm.SetLenient(opts.ParseMode == parse.Lenient)
	return inc, nil
}

// countLines counts the lines in b, treating a final unterminated fragment
// as one line (matching stream.ForEachLine).
func countLines(b []byte) int {
	n := bytes.Count(b, []byte("\n"))
	if len(b) > 0 && b[len(b)-1] != '\n' {
		n++
	}
	return n
}

// shiftSamples rebases the retained sample line numbers by base, turning
// chunk-relative provenance into absolute archive line numbers.
func shiftSamples(ls *parse.LineStats, base int) {
	if base == 0 {
		return
	}
	for i := 0; i < ls.Samples.N; i++ {
		if ls.Samples.Samples[i].Line > 0 {
			ls.Samples.Samples[i].Line += base
		}
	}
}

// deltaReader wraps one Delta field for ingest; an empty field is a nil
// archive, which ingest skips.
func deltaReader(b []byte) io.Reader {
	if len(b) == 0 {
		return nil
	}
	return bytes.NewReader(b)
}

// Append folds one chunk of raw archive bytes into the pipeline state. The
// chunk goes through ingest — the block engine Analyze uses, the three
// archives concurrently with Options.Parallelism workers each — into the
// persistent assemblers, in lenient or strict mode per Options.ParseMode. A
// strict-mode parse failure poisons the Incremental: the error, with
// absolute line provenance, is returned from this and every later call.
func (inc *Incremental) Append(d Delta) (AppendStats, error) {
	if inc.err != nil {
		return AppendStats{}, inc.err
	}
	evs, rst, err := ingest(Archives{
		Accounting: deltaReader(d.Accounting),
		Apsys:      deltaReader(d.Apsys),
		Syslog:     deltaReader(d.Syslog),
		Location:   inc.loc,
	}, inc.top, inc.opts, func(rec wlm.ScanRecord) error {
		inc.dirtyJobs[string(rec.JobID)] = struct{}{}
		return inc.wlmAsm.AddScan(rec)
	}, inc.alpsAsm)
	if err != nil {
		// A strict-mode error carries a chunk-relative line: rebase it by the
		// lines its archive had already consumed and re-render the message.
		var pe *parse.Error
		if errors.As(err, &pe) && pe.Line > 0 {
			for i, name := range archiveNames {
				if pe.Archive == name {
					pe.Line += inc.lineBase[i]
					break
				}
			}
			err = archiveErr(pe.Archive, pe)
		}
		inc.err = err
		return AppendStats{}, err
	}

	st := AppendStats{
		AccountingLines: countLines(d.Accounting),
		ApsysLines:      countLines(d.Apsys),
		SyslogLines:     countLines(d.Syslog),
		Events:          len(evs),
	}
	lines := [len(archiveNames)]int{st.AccountingLines, st.ApsysLines, st.SyslogLines}
	details := [len(archiveNames)]*parse.LineStats{&rst.AccountingDetail, &rst.ApsysDetail, &rst.SyslogDetail}
	for i := range archiveNames {
		shiftSamples(details[i], inc.lineBase[i])
		inc.lineBase[i] += lines[i]
	}
	inc.stats.merge(rst)

	for _, e := range evs {
		if !inc.haveNew || e.Time.Before(inc.minNew) {
			inc.minNew, inc.haveNew = e.Time, true
		}
	}
	inc.events = append(inc.events, evs...)
	st.RunsCompleted = len(inc.alpsAsm.Done())
	return st, nil
}

// mergeSorted folds batch into carry, both sorted by the total order cmp;
// where dup is non-nil, an element for which dup(previous, element) holds is
// dropped. carry is never written: a batch that sorts after it extends it
// (into spare capacity, which no holder of the old length can see), anything
// else yields a fresh slice, copied at memmove speed outside the stretch the
// batch interleaves with.
func mergeSorted[T any](carry, batch []T, cmp func(a, b T) int, dup func(a, b T) bool) []T {
	if len(carry) == 0 || len(batch) == 0 {
		return append(carry, batch...)
	}
	lo, _ := slices.BinarySearchFunc(carry, batch[0], cmp)
	out := carry
	if lo < len(carry) {
		out = append(make([]T, 0, len(carry)+len(batch)), carry[:lo]...)
	}
	put := func(x T) {
		if dup == nil || len(out) == 0 || !dup(out[len(out)-1], x) {
			out = append(out, x)
		}
	}
	i := lo
	for _, b := range batch {
		for ; i < len(carry) && cmp(carry[i], b) <= 0; i++ {
			put(carry[i])
		}
		put(b)
	}
	if i < len(carry) {
		put(carry[i])
		out = append(out, carry[i+1:]...)
	}
	return out
}

// foldJobs merges the current records of the dirty jobs — exactly the changed
// set — into the job carry, after filtering out their stale copies (a job's
// start time, hence its position, can change).
func (inc *Incremental) foldJobs() {
	batch := make([]wlm.Job, 0, len(inc.dirtyJobs))
	for id := range inc.dirtyJobs {
		if j, ok := inc.wlmAsm.Job(id); ok {
			batch = append(batch, j)
		}
	}
	slices.SortFunc(batch, wlm.CompareJobs)
	carry := inc.jobs
	if len(carry)+len(batch) > inc.wlmAsm.Len() { // some dirty job is already carried
		carry = slices.DeleteFunc(slices.Clone(carry), func(j wlm.Job) bool {
			_, dirty := inc.dirtyJobs[j.ID]
			return dirty
		})
	}
	inc.jobs = mergeSorted(carry, batch, wlm.CompareJobs, nil)
}

// Result materializes the full pipeline output over everything appended so
// far by folding the changed jobs, the new events (sorted and deduplicated
// among themselves first) and the newly completed runs into the sorted
// carries. Only runs inside the affected window are re-attributed, against
// an index of the events from the earliest such run's evidence horizon on;
// the rest keep the attribution of the previous Result. The returned Result
// equals a from-scratch Analyze over the concatenated input. It is never
// written again; its Jobs and Events may share their backing arrays with
// other Results, its Runs are its own.
func (inc *Incremental) Result() (*Result, error) {
	if inc.err != nil {
		return nil, inc.err
	}
	inc.foldJobs()
	if fresh := inc.events[inc.folded:]; len(fresh) > 0 {
		inc.dedup = mergeSorted(inc.dedup, coalesce.Dedup(fresh), coalesce.CompareEvents, coalesce.Duplicate)
		inc.folded = len(inc.events)
	}
	res := &Result{
		Jobs:      slices.Clip(inc.jobs),
		Events:    slices.Clip(inc.dedup),
		RawEvents: len(inc.events),
		Parse:     inc.stats,
	}
	res.Parse.setAssembler(inc.alpsAsm)

	cfg := correlate.DefaultConfig()
	var boundary time.Time
	if inc.haveNew {
		boundary = inc.minNew.Add(-(cfg.EvidenceWindow + cfg.PostWindow))
	}
	done := inc.alpsAsm.Done()
	var affIdx []int
	var affRuns []alps.AppRun
	var minEnd time.Time // the earliest End among them
	for i := range done {
		r := &done[i]
		redo := i >= len(inc.attr)
		if !redo && inc.haveNew && !r.End.Before(boundary) {
			redo = true
		}
		if !redo && len(inc.dirtyJobs) > 0 {
			_, redo = inc.dirtyJobs[r.JobID]
		}
		if redo {
			if len(affIdx) == 0 || r.End.Before(minEnd) {
				minEnd = r.End
			}
			affIdx = append(affIdx, i)
			affRuns = append(affRuns, *r)
		}
	}
	// The correlator sees what the affected runs can: their own jobs, and the
	// events from the earliest evidence horizon among them on.
	cfg.Jobs = make(map[string]wlm.Job, len(affRuns))
	for _, r := range affRuns {
		if j, ok := inc.wlmAsm.Job(r.JobID); ok {
			cfg.Jobs[r.JobID] = j
		}
	}
	lo := len(inc.dedup)
	if len(affRuns) > 0 {
		lo, _ = slices.BinarySearchFunc(inc.dedup, minEnd.Add(-cfg.EvidenceWindow),
			func(e errlog.Event, horizon time.Time) int { return e.Time.Compare(horizon) })
	}
	corr, err := correlate.New(interval.NewIndex(inc.dedup[lo:]), inc.top, cfg)
	if err != nil {
		return nil, err
	}
	newAttr := corr.AttributeAllParallel(affRuns, inc.opts.Parallelism)
	inc.attr = slices.Grow(inc.attr, len(done)-len(inc.attr))[:len(done)]
	for k, i := range affIdx {
		inc.attr[i] = newAttr[k]
	}
	inc.lastRedo = len(affIdx)
	inc.dirtyJobs = make(map[string]struct{}) // not clear: a catch-up round's table would stay
	inc.minNew, inc.haveNew = time.Time{}, false

	// The same order as Assembler.Runs, which the batch path attributes in.
	inc.order = mergeSorted(inc.order, alps.StartOrder(done, len(inc.order)), alps.ByStart(done), nil)
	res.Runs = make([]correlate.AttributedRun, len(inc.order))
	for k, i := range inc.order {
		res.Runs[k] = inc.attr[i]
	}
	res.setSpan()
	return res, nil
}

// Runs returns the completed-run count attributed so far.
func (inc *Incremental) Runs() int { return len(inc.attr) }

// Reattributed reports how many runs the last Result call re-attributed
// (rather than carried over) — the observability hook that shows windowed
// re-attribution doing its job.
func (inc *Incremental) Reattributed() int { return inc.lastRedo }

// Err returns the poisoning error of a failed strict-mode Append, nil
// while the pipeline is healthy.
func (inc *Incremental) Err() error { return inc.err }
