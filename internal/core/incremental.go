package core

// The pipeline. Incremental is the one path from raw bytes to a Result:
// Analyze is one round of a fresh Incremental, and a long-running service
// tails growing archives and appends each new chunk of raw log text. The
// Incremental keeps the persistent parse state (the accounting and apsys
// assemblers, whose half-open records span append boundaries, the
// classified events, and the cumulative ParseStats with absolute line
// provenance) and, on demand, materializes a *Result equal to what one
// round over the concatenated input would produce — for work proportional
// to what was appended plus one copy of the runs, with no sort and no
// re-attribution of history.
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
// The sorted carries: deduplicated events and the run order stay in output
// order between rounds. Each order is total (coalesce.CompareEvents,
// alps.ByStart), so sorting only a round's own batch and folding it in with
// mergeSorted lands on the very sequence a sort of everything gives. Each
// record has one owner: a job lives in the accounting assembler, a completed
// run in the apsys assembler and its attribution beside it, an event in the
// dedup carry or, until the next Result, in the pending batch.
// TestIncrementalMatchesAnalyze and TestIncrementalSchedule assert exact
// Result equality against a fresh pipeline's one round after every round;
// TestAnalyzeAttributionAgainstTruth scores both against ground truth.

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
	"logdiver/internal/metrics"
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
	// pending are the events since the last Result; raw counts every event.
	pending []errlog.Event
	raw     int
	stats   ParseStats
	// lineBase holds the raw lines already consumed per archive, so sample
	// and strict-error line numbers stay absolute across appends.
	lineBase [3]int

	// attr[i] is the attribution of alpsAsm.Done()[i] at the last Result
	// call; done[len(attr):] are not yet attributed. No Result shares it, so
	// re-attribution writes it in place.
	attr []correlate.Attribution
	// The sorted carries: order is the indices of attr in alps.ByStart order,
	// dedup the coalesce.Dedup of the events before pending. Results and
	// states share a clipped prefix of dedup, which is therefore extended or
	// replaced, never written.
	order []int
	dedup []errlog.Event
	// dirtyJobs are batch jobs with new accounting records since the last
	// Result; minNew/haveNew track the earliest new event timestamp.
	dirtyJobs map[string]struct{}
	minNew    time.Time
	haveNew   bool
	// lastRedo is the number of runs the last Result re-attributed.
	lastRedo int
	// agg and span summarize attr; each Result gets a clone of agg.
	agg  metrics.Aggregate
	span span

	err error
}

// NewIncremental returns an empty incremental pipeline. loc is the zone
// accounting stamps are checked in (UTC when nil; no result depends on it);
// the zero Options select the study defaults.
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
		dirtyJobs: make(map[string]struct{}),
	}
	inc.alpsAsm.SetLenient(opts.ParseMode == parse.Lenient)
	return inc, nil
}

// shiftSamples rebases the retained sample line numbers by base, turning
// chunk-relative provenance into absolute archive line numbers.
func shiftSamples(ls *parse.LineStats, base int) {
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

// Append folds one chunk of raw archive bytes into the pipeline state, in
// lenient or strict mode per Options.ParseMode. A strict-mode parse failure
// poisons the Incremental: the error, with absolute line provenance, is
// returned from this and every later call.
func (inc *Incremental) Append(d Delta) (AppendStats, error) {
	return inc.read(Archives{
		Accounting: deltaReader(d.Accounting),
		Apsys:      deltaReader(d.Apsys),
		Syslog:     deltaReader(d.Syslog),
	})
}

// read is the one way raw bytes enter the pipeline, for Append and Analyze
// alike: ingest — the three archives concurrently, Options.Parallelism
// block workers each — into the persistent assemblers.
func (inc *Incremental) read(a Archives) (AppendStats, error) {
	if inc.err != nil {
		return AppendStats{}, inc.err
	}
	evs, rst, lines, err := ingest(a, inc.loc, inc.top, inc.opts, func(rec wlm.ScanRecord) error {
		// With nothing attributed yet the next Result redoes every run, so no
		// job needs marking. Look up first: an assignment allocates its key
		// even when present.
		if len(inc.attr) > 0 {
			if _, ok := inc.dirtyJobs[string(rec.JobID)]; !ok {
				inc.dirtyJobs[string(rec.JobID)] = struct{}{}
			}
		}
		return inc.wlmAsm.AddScan(rec)
	}, inc.alpsAsm)
	if err != nil {
		// A strict-mode error carries a chunk-relative line: rebase it by the
		// lines its archive had already consumed and re-render the message.
		var pe *parse.Error
		if errors.As(err, &pe) && pe.Line > 0 {
			if i := slices.Index(archiveNames[:], pe.Archive); i >= 0 {
				pe.Line += inc.lineBase[i]
			}
			err = archiveErr(pe.Archive, pe)
		}
		inc.err = err
		return AppendStats{}, err
	}

	details := [len(archiveNames)]*parse.LineStats{&rst.AccountingDetail, &rst.ApsysDetail, &rst.SyslogDetail}
	for i := range archiveNames {
		shiftSamples(details[i], inc.lineBase[i])
		inc.lineBase[i] += lines[i]
	}
	inc.stats.Add(rst)

	for _, e := range evs {
		if !inc.haveNew || e.Time.Before(inc.minNew) {
			inc.minNew, inc.haveNew = e.Time, true
		}
	}
	if len(inc.pending) == 0 {
		inc.pending = evs // ingest's own slice: no copy
	} else {
		inc.pending = append(inc.pending, evs...)
	}
	inc.raw += len(evs)
	return AppendStats{
		AccountingLines: lines[archiveIdxAccounting],
		ApsysLines:      lines[archiveIdxApsys],
		SyslogLines:     lines[archiveIdxSyslog],
		Events:          len(evs),
		RunsCompleted:   len(inc.alpsAsm.Done()),
	}, nil
}

// mergeSorted folds batch into carry, both sorted by the total order cmp;
// where dup is non-nil, an element for which dup(previous, element) holds is
// dropped. carry is never written: a batch that sorts after it extends it
// (into spare capacity, which no holder of the old length can see), anything
// else yields a fresh slice, copied at memmove speed outside the stretch the
// batch interleaves with. The batch is the caller's to give away: with no
// carry it is the result.
func mergeSorted[T any](carry, batch []T, cmp func(a, b T) int, dup func(a, b T) bool) []T {
	if len(carry) == 0 {
		return batch
	}
	if len(batch) == 0 {
		return carry
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

// Result materializes the full pipeline output over everything appended so
// far by folding the new events (sorted and deduplicated among themselves
// first) and the newly completed runs into the sorted carries. Only runs
// inside the affected window or of a job with new accounting records are
// re-attributed, against an index of the events from the earliest such
// run's evidence horizon on; the rest keep the attribution of the previous
// Result. The returned Result equals a from-scratch Analyze over the
// concatenated input. It is never written again; its Events may share their
// backing array with other Results, its Runs are its own.
func (inc *Incremental) Result() (*Result, error) {
	if inc.err != nil {
		return nil, inc.err
	}
	if len(inc.pending) > 0 {
		inc.dedup = mergeSorted(inc.dedup, coalesce.Dedup(inc.pending), coalesce.CompareEvents, coalesce.Duplicate)
		inc.pending = nil
	}
	res := &Result{
		NumJobs:   inc.wlmAsm.Len(),
		Events:    slices.Clip(inc.dedup),
		RawEvents: inc.raw,
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
	var minEnd time.Time // the earliest End among them
	for i := range done {
		r := &done[i]
		redo := i >= len(inc.attr) || inc.haveNew && !r.End.Before(boundary)
		if !redo && len(inc.dirtyJobs) > 0 {
			_, redo = inc.dirtyJobs[r.JobID]
		}
		if redo {
			if len(affIdx) == 0 || r.End.Before(minEnd) {
				minEnd = r.End
			}
			affIdx = append(affIdx, i)
		}
	}
	// The runs to attribute, in the order of idx. When every completed run is
	// redone (a fresh pipeline's round) that is the output order, and their
	// attributions are the Result's runs; otherwise the affected ones.
	inc.order = mergeSorted(inc.order, alps.StartOrder(done, len(inc.order)), alps.ByStart(done), nil)
	idx := affIdx
	if len(affIdx) == len(done) {
		idx = inc.order
	}
	runs := make([]alps.AppRun, len(idx))
	for k, i := range idx {
		runs[k] = done[i]
	}
	// The correlator sees what the runs can: their own jobs (the whole table
	// when they outnumber it), and the events from the earliest evidence
	// horizon among them on.
	if len(runs) >= inc.wlmAsm.Len() {
		cfg.Jobs = make(map[string]wlm.Job, inc.wlmAsm.Len())
		for _, j := range inc.wlmAsm.Jobs() {
			cfg.Jobs[j.ID] = j
		}
	} else {
		cfg.Jobs = make(map[string]wlm.Job, len(runs))
		for _, r := range runs {
			if j, ok := inc.wlmAsm.Job(r.JobID); ok {
				cfg.Jobs[r.JobID] = j
			}
		}
	}
	lo := len(inc.dedup)
	if len(runs) > 0 {
		lo, _ = slices.BinarySearchFunc(inc.dedup, minEnd.Add(-cfg.EvidenceWindow),
			func(e errlog.Event, horizon time.Time) int { return e.Time.Compare(horizon) })
	}
	corr, err := correlate.New(interval.NewIndex(inc.dedup[lo:]), inc.top, cfg)
	if err != nil {
		return nil, err
	}
	attributed := corr.AttributeAllParallel(runs, inc.opts.Parallelism)
	// The aggregate takes −old +new for exactly the re-attributed runs and
	// +new for the newly completed ones, which alone can widen the span.
	carried := len(inc.attr)
	inc.attr = slices.Grow(inc.attr, len(done)-carried)[:len(done)]
	for k, i := range idx {
		if i < carried {
			inc.agg.Sub(&correlate.AttributedRun{AppRun: done[i], Attribution: inc.attr[i]})
		} else {
			inc.span.cover(&done[i])
		}
		inc.attr[i] = attributed[k].Attribution
		inc.agg.Add(&attributed[k])
	}
	inc.lastRedo = len(idx)
	inc.dirtyJobs = make(map[string]struct{}) // not clear: a catch-up round's table would stay
	inc.minNew, inc.haveNew = time.Time{}, false

	if len(idx) == len(done) {
		res.Runs = attributed
	} else {
		res.Runs = make([]correlate.AttributedRun, len(inc.order))
		for k, i := range inc.order {
			// Field by field: a composite literal measured slower on idle rounds.
			r := &res.Runs[k]
			r.AppRun, r.Attribution = done[i], inc.attr[i]
		}
	}
	res.Agg = inc.agg.Clone()
	res.Start, res.End = inc.span.start, inc.span.end
	return res, nil
}

// span bounds the observed activity: the earliest nonzero run start and the
// latest run end. Both are order-free, so a round covers only its newly
// completed runs (re-attribution moves neither).
type span struct{ start, end time.Time }

func (s *span) cover(r *alps.AppRun) {
	if !r.Start.IsZero() && (s.start.IsZero() || r.Start.Before(s.start)) {
		s.start = r.Start
	}
	if r.End.After(s.end) {
		s.end = r.End
	}
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
