package core

// Ingestion: the one path from raw archive bytes to parsed state, entered
// through Incremental (Analyze is one round of a fresh one). The three
// archives are parsed concurrently (one reader goroutine each), and within
// every archive the raw text is split into line-aligned blocks that a worker
// pool (Options.Parallelism workers per archive) parses — and, for syslog,
// classifies — concurrently.
// Block results are merged back in archive order, so the assembled jobs,
// runs, events and ParseStats — including the per-kind malformed counters
// and provenance samples — do not depend on the worker count or the block
// size; TestAnalyzeInvariantToWorkersAndBlockSize asserts exact equality of
// the whole Result against a one-worker, one-block scan.
//
// ParseStats accumulation is race-free by construction: each archive reader
// owns a private ParseStats, each block's counters and line-stats travel
// with the block result and are merged on the single consumer goroutine,
// and the three private structs are merged after all readers join.
//
// Strict mode is deterministic: each block worker reports the first
// malformed line of its block (with the archive line number from the
// block's provenance), and stream.Ordered surfaces the first error in
// block-production order — together, the first malformed line of the whole
// archive.

import (
	"bytes"
	"io"
	"sync"
	"time"

	"logdiver/internal/alps"
	"logdiver/internal/errlog"
	"logdiver/internal/machine"
	"logdiver/internal/parse"
	"logdiver/internal/stream"
	"logdiver/internal/syslogx"
	"logdiver/internal/taxonomy"
	"logdiver/internal/wlm"
)

// ingestBlockSize is the block granularity of ingestion. A variable (not
// const) so tests can shrink it to force malformed lines and record
// boundaries onto chunk edges.
var ingestBlockSize = stream.DefaultBlockSize

// ingest parses the three archives concurrently (a nil archive is skipped):
// accounting records, their stamps checked in loc, go to accSink and apsys
// messages into alpsAsm, both in archive order, and the classified syslog
// events are returned with the merged parse stats and the raw lines read per
// archive (blank and malformed ones included). The caller owns both sinks —
// Incremental's persistent assemblers, or a test's fresh ones — and derives
// the pairing-anomaly counters via setAssembler when it snapshots. With
// corruption in several archives a strict-mode run reports the error of the
// first one in fixed order (accounting, apsys, syslog).
func ingest(a Archives, loc *time.Location, top *machine.Topology, opts Options, accSink func(wlm.ScanRecord) error, alpsAsm *alps.Assembler) (events []errlog.Event, stats ParseStats, lines [len(archiveNames)]int, err error) {
	var (
		wg    sync.WaitGroup
		parts [len(archiveNames)]ParseStats
		errs  [len(archiveNames)]error
	)
	wg.Add(len(archiveNames))
	go func() {
		defer wg.Done()
		lines[archiveIdxAccounting], errs[archiveIdxAccounting] = ingestAccounting(a.Accounting, loc, opts.Parallelism, opts.ParseMode, &parts[archiveIdxAccounting], accSink)
	}()
	go func() {
		defer wg.Done()
		lines[archiveIdxApsys], errs[archiveIdxApsys] = ingestApsys(a.Apsys, opts.Parallelism, opts.ParseMode, &parts[archiveIdxApsys], alpsAsm)
	}()
	go func() {
		defer wg.Done()
		events, lines[archiveIdxSyslog], errs[archiveIdxSyslog] = ingestSyslog(a.Syslog, top, opts.Classifier, opts.Parallelism, opts.ParseMode, &parts[archiveIdxSyslog])
	}()
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			return nil, ParseStats{}, lines, archiveErr(archiveNames[i], e)
		}
	}
	for _, p := range parts {
		stats.Add(p)
	}
	return events, stats, lines, nil
}

// setAssembler copies the pairing-anomaly counters out of an apsys
// assembler. These are state (not additive per block), so the incremental
// path re-derives them from the persistent assembler at every snapshot.
func (s *ParseStats) setAssembler(asm *alps.Assembler) {
	s.OpenRuns = asm.Open()
	s.UnmatchedExits = asm.Unmatched()
	s.DuplicateStarts = asm.Duplicates()
	s.ClampedRuns = asm.ClampedEnds()
}

// accChunk is one parsed accounting block. The records hold byte views into
// the block's pooled buffer, valid until the consume callback returns (the
// sink must copy or intern what it retains, which AddScan does).
type accChunk struct {
	recs  []wlm.ScanRecord
	stats parse.LineStats
}

// ingestAccounting streams the accounting archive through the block worker
// pool, feeding every parsed record to sink (in archive order) and
// accumulating parse stats into st. It returns the raw lines read. Errors
// are returned unwrapped; ingest stamps the archive name.
func ingestAccounting(r io.Reader, loc *time.Location, workers int, mode parse.Mode, st *ParseStats, sink func(wlm.ScanRecord) error) (int, error) {
	if r == nil {
		return 0, nil
	}
	lines, err := stream.OrderedRecycledBlocks(r, ingestBlockSize, workers,
		func(b stream.Block) (accChunk, error) {
			recs, stats, err := wlm.ScanBlockMode(b.Data, loc, b.FirstLine, mode)
			if err != nil {
				return accChunk{}, err
			}
			return accChunk{recs: recs, stats: stats}, nil
		},
		func(c accChunk) error {
			st.AccountingRecords += len(c.recs)
			st.AccountingDetail.Merge(c.stats)
			for _, rec := range c.recs {
				if err := sink(rec); err != nil {
					return err
				}
			}
			return nil
		})
	if err != nil {
		return 0, err
	}
	st.AccountingDetail.SetArchive(ArchiveAccounting)
	st.AccountingMalformed = st.AccountingDetail.Malformed()
	return lines, nil
}

// apsysTagBytes is alps.Tag for byte-view comparison on the hot path.
var apsysTagBytes = []byte(alps.Tag)

// checkApsysLineBytes applies the full per-line semantics of the apsys
// archive: the syslog layer first (blank lines skip, malformed lines yield a
// typed error), then the apsys message layer for lines with the apsys tag.
// counted reports whether the line counts toward ApsysLines (the syslog
// layer parsed — including lines whose apsys message is malformed); haveMsg
// reports whether v holds a parsed message to feed the assembler. Any
// returned error carries the archive line number no. The returned view
// aliases raw; callers must fold it (AddView copies what it retains) before
// the buffer is reused.
func checkApsysLineBytes(raw []byte, no int) (at time.Time, v alps.MessageView, counted, haveMsg bool, perr *parse.Error) {
	lv, skip, perr := syslogx.CheckLineBytes(raw)
	if skip {
		return time.Time{}, alps.MessageView{}, false, false, nil
	}
	if perr != nil {
		perr.Line = no
		return time.Time{}, alps.MessageView{}, false, false, perr
	}
	if !bytes.Equal(lv.Tag, apsysTagBytes) {
		return time.Time{}, alps.MessageView{}, true, false, nil
	}
	m, merr := alps.ParseMessageBytes(lv.Msg)
	if merr != nil {
		merr.Line = no
		return time.Time{}, alps.MessageView{}, true, false, merr
	}
	return lv.Time, m, true, true, nil
}

// apsView is one parsed apsys message view with its syslog timestamp.
type apsView struct {
	at time.Time
	v  alps.MessageView
}

// apsViewChunk is one parsed apsys block. The message views alias the block's pooled buffer, valid until the consume
// callback returns (AddView copies or interns what it retains).
type apsViewChunk struct {
	msgs  []apsView
	lines int // well-formed syslog lines (any tag)
	stats parse.LineStats
}

// parseApsysBlockBytes applies checkApsysLineBytes to every line of a
// numbered block.
func parseApsysBlockBytes(b stream.Block, mode parse.Mode) (apsViewChunk, error) {
	var c apsViewChunk
	no := b.FirstLine - 1
	var failed *parse.Error
	stream.ForEachLine(b.Data, func(raw []byte) {
		no++
		if failed != nil {
			return
		}
		at, v, counted, haveMsg, perr := checkApsysLineBytes(raw, no)
		if counted {
			c.lines++
		}
		if perr != nil {
			if mode == parse.Strict {
				failed = perr
				return
			}
			c.stats.Record(perr)
			return
		}
		if haveMsg {
			c.msgs = append(c.msgs, apsView{at: at, v: v})
		}
	})
	if failed != nil {
		return apsViewChunk{}, failed
	}
	return c, nil
}

// ingestApsys streams the apsys archive through the block worker pool into
// the caller-owned assembler. The pairing-anomaly counters (OpenRuns,
// UnmatchedExits, ...) are assembler state, not per-block deltas, so they
// are not accumulated here (see setAssembler). It returns the raw lines
// read. Errors are returned unwrapped; ingest stamps the archive name.
func ingestApsys(r io.Reader, workers int, mode parse.Mode, st *ParseStats, asm *alps.Assembler) (int, error) {
	if r == nil {
		return 0, nil
	}
	lines, err := stream.OrderedRecycledBlocks(r, ingestBlockSize, workers,
		func(b stream.Block) (apsViewChunk, error) { return parseApsysBlockBytes(b, mode) },
		func(c apsViewChunk) error {
			st.ApsysLines += c.lines
			st.ApsysDetail.Merge(c.stats)
			for _, m := range c.msgs {
				if err := asm.AddView(m.at, m.v); err != nil {
					return err
				}
			}
			return nil
		})
	if err != nil {
		return 0, err
	}
	st.ApsysDetail.SetArchive(ArchiveApsys)
	st.ApsysMalformed = st.ApsysDetail.Malformed()
	return lines, nil
}

// sysChunk is one parsed-and-classified syslog block.
type sysChunk struct {
	events       []errlog.Event
	lines        int // well-formed lines
	unclassified int
	stats        parse.LineStats
}

// parseSyslogBlock parses and classifies every line of a numbered block. hc
// memoizes host resolution against top and must not be shared between
// concurrent calls.
func parseSyslogBlock(b stream.Block, top *machine.Topology, cls *taxonomy.Classifier, hc *errlog.HostCache, mode parse.Mode) (sysChunk, error) {
	var c sysChunk
	var batch errlog.EventBatch
	no := b.FirstLine - 1
	var failed *parse.Error
	stream.ForEachLine(b.Data, func(raw []byte) {
		no++
		if failed != nil {
			return
		}
		v, skip, perr := syslogx.CheckLineBytes(raw)
		if skip {
			return
		}
		if perr != nil {
			perr.Line = no
			if mode == parse.Strict {
				failed = perr
				return
			}
			c.stats.Record(perr)
			return
		}
		c.lines++
		cat, sev := cls.ClassifyBytes(v.Msg)
		if cat == taxonomy.Unclassified {
			c.unclassified++
			return
		}
		node, cname := hc.Resolve(v.Host, top)
		batch.Append(errlog.Event{Time: v.Time, Node: node, Cname: cname, Category: cat, Severity: sev}, v.Msg)
	})
	if failed != nil {
		return sysChunk{}, failed
	}
	c.events = batch.Finish()
	return c, nil
}

// ingestSyslog streams the error log through the block worker pool and
// returns the classified events in archive order and the raw lines read.
// Errors are returned unwrapped; ingest stamps the archive name.
func ingestSyslog(r io.Reader, top *machine.Topology, cls *taxonomy.Classifier, workers int, mode parse.Mode, st *ParseStats) ([]errlog.Event, int, error) {
	if r == nil {
		return nil, 0, nil
	}
	var events []errlog.Event
	// Per-worker host caches, reused across the blocks of this archive. The
	// pool is local because cached attributions are only valid for this
	// topology.
	hostCaches := sync.Pool{New: func() any { return errlog.NewHostCache() }}
	lines, err := stream.OrderedRecycledBlocks(r, ingestBlockSize, workers,
		func(b stream.Block) (sysChunk, error) {
			hc := hostCaches.Get().(*errlog.HostCache)
			defer hostCaches.Put(hc)
			return parseSyslogBlock(b, top, cls, hc, mode)
		},
		func(c sysChunk) error {
			st.SyslogLines += c.lines
			st.Unclassified += c.unclassified
			st.SyslogDetail.Merge(c.stats)
			events = append(events, c.events...)
			return nil
		})
	if err != nil {
		return nil, 0, err
	}
	st.SyslogDetail.SetArchive(ArchiveSyslog)
	st.SyslogMalformed = st.SyslogDetail.Malformed()
	return events, lines, nil
}
