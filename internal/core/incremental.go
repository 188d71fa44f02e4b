package core

// Incremental ingestion: the online counterpart of Analyze. A long-running
// service tails growing archives and appends each new chunk of raw log
// text; the Incremental keeps the persistent parse state (the accounting
// and apsys assemblers, whose half-open records span append boundaries, the
// classified event stream, and the cumulative ParseStats with absolute line
// provenance) and, on demand, materializes a *Result equal to what a
// from-scratch Analyze over the concatenated input would produce — without
// re-attributing the whole history.
//
// The re-attribution window is the key: a run's attribution depends on the
// event index only inside [End-EvidenceWindow, End+PostWindow] (Attribute
// clamps the search to at most EvidenceWindow before the end), so an
// appended event with timestamp t can only change runs whose End lies in
// [t-PostWindow, t+EvidenceWindow]. Result therefore re-attributes exactly
// (a) runs completed since the last snapshot, (b) runs whose End is at or
// after minNewEventTime-(EvidenceWindow+PostWindow), and (c) runs whose
// batch job saw new accounting records (walltime-kill detection reads the
// job record). Everything older keeps its previous attribution.
// TestIncrementalMatchesAnalyze asserts exact Result equality against the
// batch pipeline after every append round.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"logdiver/internal/alps"
	"logdiver/internal/correlate"
	"logdiver/internal/errlog"
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
	// of the last Result call; done[len(attr):] are not yet attributed.
	attr []correlate.AttributedRun
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
		dirtyJobs: make(map[string]struct{}),
	}
	inc.alpsAsm.SetLenient(opts.ParseMode == parse.Lenient)
	return inc, nil
}

// countLines counts the lines in b, treating a final unterminated fragment
// as one line (matching parse.LineReader).
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

// Result materializes the full pipeline output over everything appended so
// far. Dedup and the event index are rebuilt over the whole event stream
// (sort-bound), but only runs inside the affected window are re-attributed; the rest keep the attribution of the previous Result. The
// returned Result equals a from-scratch Analyze over the concatenated
// input and shares no mutable state with the Incremental.
func (inc *Incremental) Result() (*Result, error) {
	if inc.err != nil {
		return nil, inc.err
	}
	res := &Result{Jobs: inc.wlmAsm.Jobs()}
	res.Parse = inc.stats
	res.Parse.setAssembler(inc.alpsAsm)

	corr, err := res.preprocess(inc.events, inc.top, inc.opts)
	if err != nil {
		return nil, err
	}

	var boundary time.Time
	if inc.haveNew {
		boundary = inc.minNew.Add(-(inc.opts.Correlate.EvidenceWindow + inc.opts.Correlate.PostWindow))
	}
	done := inc.alpsAsm.Done()
	attr := make([]correlate.AttributedRun, len(done))
	copy(attr, inc.attr)
	var (
		affIdx  []int
		affRuns []alps.AppRun
	)
	for i, r := range done {
		redo := i >= len(inc.attr)
		if !redo && inc.haveNew && !r.End.Before(boundary) {
			redo = true
		}
		if !redo && len(inc.dirtyJobs) > 0 {
			_, redo = inc.dirtyJobs[r.JobID]
		}
		if redo {
			affIdx = append(affIdx, i)
			affRuns = append(affRuns, r)
		}
	}
	newAttr := corr.AttributeAllParallel(affRuns, inc.opts.Parallelism)
	for k, i := range affIdx {
		attr[i] = newAttr[k]
	}
	inc.attr = attr
	inc.lastRedo = len(affIdx)
	inc.dirtyJobs = make(map[string]struct{})
	inc.minNew, inc.haveNew = time.Time{}, false

	// Same order as Assembler.Runs, which the batch path attributes in.
	res.Runs = make([]correlate.AttributedRun, len(attr))
	copy(res.Runs, attr)
	sort.Slice(res.Runs, func(i, j int) bool {
		if !res.Runs[i].Start.Equal(res.Runs[j].Start) {
			return res.Runs[i].Start.Before(res.Runs[j].Start)
		}
		return res.Runs[i].ApID < res.Runs[j].ApID
	})
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
