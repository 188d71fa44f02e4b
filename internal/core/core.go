// Package core implements the LogDiver pipeline: ingesting the three raw
// archives (workload accounting, ALPS application logs, syslog error logs),
// classifying and deduplicating error records, joining errors to application
// runs, and attributing every run's outcome. This is the orchestration layer
// the study's measurements flow through; the statistical post-processing
// lives in internal/metrics.
package core

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"logdiver/internal/alps"
	"logdiver/internal/correlate"
	"logdiver/internal/errlog"
	"logdiver/internal/machine"
	"logdiver/internal/metrics"
	"logdiver/internal/parse"
	"logdiver/internal/taxonomy"
	"logdiver/internal/wlm"
)

// Archives bundles the three raw log sources of the study.
type Archives struct {
	// Accounting is the Torque-style job accounting archive.
	Accounting io.Reader
	// Apsys is the ALPS application log (syslog lines with the apsys tag).
	Apsys io.Reader
	// Syslog is the system error log archive.
	Syslog io.Reader
	// Location interprets accounting timestamps (UTC when nil).
	Location *time.Location
}

// Options tunes the pipeline. The zero value selects the study defaults.
type Options struct {
	// Classifier overrides the default taxonomy classifier. The classifier
	// is shared by the ingestion workers and must be safe for concurrent
	// use; taxonomy.Classifier is (see its doc), and custom implementations
	// built from NewClassifier inherit that property.
	Classifier *taxonomy.Classifier
	// Parallelism is the worker count of every parallel stage: the block
	// workers that parse and classify each archive (ingestion always reads
	// the three archives concurrently and splits each into line-aligned
	// blocks, so N means N workers per archive) and the attribution workers
	// of the join. Values <= 0 (including negatives) select
	// runtime.GOMAXPROCS(0). Results are identical at every value.
	Parallelism int
	// ParseMode selects the malformed-input policy. Lenient (the zero
	// value) skips unparseable lines while accounting them — per-kind
	// counters plus first-N provenance samples in ParseStats, identical
	// at every worker count. Strict fails fast: the first malformed line
	// surfaces as a typed *parse.Error carrying the archive name and line
	// number.
	ParseMode parse.Mode
}

func (o Options) withDefaults() Options {
	if o.Classifier == nil {
		o.Classifier = taxonomy.Default()
	}
	if o.Parallelism <= 0 {
		// Negative values are treated as "unset" rather than rejected: the
		// zero value must stay usable and a negative worker count has no
		// other sensible meaning.
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// Archive names used in parse errors and malformed-line samples.
const (
	ArchiveAccounting = "accounting"
	ArchiveApsys      = "apsys"
	ArchiveSyslog     = "syslog"
)

// The fixed archive order: the precedence of strict-mode errors and the
// layout of the incremental per-archive line bases.
const (
	archiveIdxAccounting = iota
	archiveIdxApsys
	archiveIdxSyslog
)

var archiveNames = [...]string{
	archiveIdxAccounting: ArchiveAccounting,
	archiveIdxApsys:      ArchiveApsys,
	archiveIdxSyslog:     ArchiveSyslog,
}

// ParseStats reports archive hygiene: how much of the raw input was usable.
// The malformed totals are derived from the per-archive detail (typed
// per-kind counters with first-N line/offset provenance) and are identical
// at every worker count and block size. ParseStats is comparable with ==;
// the ingestion differential tests rely on that.
type ParseStats struct {
	// AccountingRecords and AccountingMalformed count accounting lines.
	AccountingRecords, AccountingMalformed int
	// ApsysLines and ApsysMalformed count ALPS log lines (the malformed
	// total includes both syslog-level and apsys-message-level failures);
	// OpenRuns and UnmatchedExits count pairing anomalies.
	ApsysLines, ApsysMalformed int
	OpenRuns, UnmatchedExits   int
	// DuplicateStarts counts apsys Starting records skipped because the
	// apid was already open — corrupted archives echo writer buffers;
	// lenient ingestion tolerates and accounts the echo.
	DuplicateStarts int
	// ClampedRuns counts apsys Finishing records stamped before their
	// Starting (clock skew) whose end time was clamped to the start,
	// yielding a zero-duration run instead of a negative one.
	ClampedRuns int
	// SyslogLines and SyslogMalformed count error-log lines;
	// Unclassified counts parsed lines no taxonomy rule matched.
	SyslogLines, SyslogMalformed int
	Unclassified                 int
	// AccountingDetail, ApsysDetail and SyslogDetail break the malformed
	// totals down by kind (structure, timestamp, field, encoding,
	// oversize) and retain the first parse.MaxSamples offending lines per
	// archive with line-number provenance.
	AccountingDetail, ApsysDetail, SyslogDetail parse.LineStats
}

// ArchiveHygiene is the per-archive view of ParseStats: how much of one
// raw log source was usable, with the malformed lines broken down by kind.
// It is the shape both the logdiverd /v1/health endpoint and the
// `logdiver analyze` hygiene summary render, so corruption tolerance is
// observable online and offline in the same vocabulary.
type ArchiveHygiene struct {
	// Archive names the log source ("accounting", "apsys", "syslog").
	Archive string `json:"archive"`
	// Lines counts the well-formed lines or records consumed.
	Lines int `json:"lines"`
	// Malformed totals the skipped lines; the Kind* fields break it down.
	Malformed     int `json:"malformed"`
	KindStructure int `json:"kind_structure"`
	KindTimestamp int `json:"kind_timestamp"`
	KindField     int `json:"kind_field"`
	KindEncoding  int `json:"kind_encoding"`
	KindOversize  int `json:"kind_oversize"`
	// Unclassified counts parsed syslog lines no taxonomy rule matched.
	Unclassified int `json:"unclassified,omitempty"`
	// Apsys pairing anomalies (zero for the other archives).
	OpenRuns        int `json:"open_runs,omitempty"`
	UnmatchedExits  int `json:"unmatched_exits,omitempty"`
	DuplicateStarts int `json:"duplicate_starts,omitempty"`
	ClampedRuns     int `json:"clamped_runs,omitempty"`
}

// String renders one hygiene row for text output.
func (h ArchiveHygiene) String() string {
	s := fmt.Sprintf("%s: %d lines, %d malformed (structure %d, timestamp %d, field %d, encoding %d, oversize %d)",
		h.Archive, h.Lines, h.Malformed,
		h.KindStructure, h.KindTimestamp, h.KindField, h.KindEncoding, h.KindOversize)
	if h.Archive == ArchiveApsys {
		s += fmt.Sprintf("; runs open %d, unmatched exits %d, duplicate starts %d, clamped %d",
			h.OpenRuns, h.UnmatchedExits, h.DuplicateStarts, h.ClampedRuns)
	}
	if h.Archive == ArchiveSyslog {
		s += fmt.Sprintf("; unclassified %d", h.Unclassified)
	}
	return s
}

// Hygiene breaks the parse stats down per archive in fixed order
// (accounting, apsys, syslog).
func (s ParseStats) Hygiene() []ArchiveHygiene {
	row := func(archive string, lines int, d parse.LineStats) ArchiveHygiene {
		return ArchiveHygiene{
			Archive:       archive,
			Lines:         lines,
			Malformed:     d.Malformed(),
			KindStructure: d.Kinds.Structure,
			KindTimestamp: d.Kinds.Timestamp,
			KindField:     d.Kinds.Field,
			KindEncoding:  d.Kinds.Encoding,
			KindOversize:  d.Kinds.Oversize,
		}
	}
	acc := row(ArchiveAccounting, s.AccountingRecords, s.AccountingDetail)
	aps := row(ArchiveApsys, s.ApsysLines, s.ApsysDetail)
	aps.OpenRuns = s.OpenRuns
	aps.UnmatchedExits = s.UnmatchedExits
	aps.DuplicateStarts = s.DuplicateStarts
	aps.ClampedRuns = s.ClampedRuns
	sys := row(ArchiveSyslog, s.SyslogLines, s.SyslogDetail)
	sys.Unclassified = s.Unclassified
	return []ArchiveHygiene{acc, aps, sys}
}

// Result is the complete pipeline output.
type Result struct {
	// NumJobs counts the distinct batch jobs the accounting archive names.
	// The job records themselves stay in the accounting assembler, which
	// attribution reads for walltime kills.
	NumJobs int
	// Runs are the attributed application runs, in start order.
	Runs []correlate.AttributedRun
	// Agg is the exact aggregate of Runs, which every served view renders.
	Agg metrics.Aggregate
	// Events are the classified error events (deduplicated, time order).
	Events []errlog.Event
	// RawEvents counts the classified events before deduplication.
	RawEvents int
	// Parse reports archive hygiene.
	Parse ParseStats
	// Start and End bound the observed activity (earliest run start,
	// latest run end; zero when there are no runs).
	Start, End time.Time
}

// Analyze runs the full pipeline over raw archives: one round of a fresh
// Incremental, which reads the three archives concurrently through the block
// engine in ingest.go, each with Options.Parallelism block workers, and then
// attributes every run. The Result is identical at every worker count and
// block size.
func Analyze(a Archives, top *machine.Topology, opts Options) (*Result, error) {
	inc, err := NewIncremental(top, a.Location, opts)
	if err != nil {
		return nil, err
	}
	if _, err := inc.read(a); err != nil {
		return nil, err
	}
	return inc.Result()
}

// AnalyzeParsed is the post-ingest half of Analyze over already-parsed jobs,
// completed runs and raw events: a pipeline restored from them, one Result.
// Its only caller outside tests is the benchmark, which times it alone.
func AnalyzeParsed(jobs []wlm.Job, runs []alps.AppRun, events []errlog.Event, top *machine.Topology, opts Options) (*Result, error) {
	inc, err := RestoreIncremental(top, nil, opts, &IncrementalState{Jobs: jobs, Alps: alps.AssemblerState{Done: runs}, Pending: events})
	if err != nil {
		return nil, err
	}
	return inc.Result()
}

// archiveErr stamps the archive name onto typed parse errors and wraps err
// with the pipeline prefix, so strict-mode failures read
// "core: apsys: line 42: ..." (the parse.Error renders its own archive name;
// other errors get the name from the wrap).
func archiveErr(archive string, err error) error {
	var pe *parse.Error
	if errors.As(err, &pe) {
		pe.Archive = archive
		return fmt.Errorf("core: %w", err)
	}
	return fmt.Errorf("core: %s: %w", archive, err)
}
