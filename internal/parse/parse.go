// Package parse defines the shared vocabulary of corruption-tolerant
// ingestion: the strict/lenient parse mode, the typed malformed-line error
// every format parser reports, per-kind malformed counters with first-N
// provenance samples, the byte-view helpers the format parsers share
// (bytes.go), and the section syntax of fleet configs and what-if policy
// files (sections.go). The format parsers (internal/wlm, internal/alps,
// internal/syslogx) produce these types; internal/core aggregates them into
// ParseStats and threads the mode through ingestion.
package parse

import (
	"fmt"
	"strings"
)

// Mode selects the malformed-input policy of the ingestion pipeline.
type Mode int

const (
	// Lenient (the zero value, and the field default) skips unparseable
	// lines while accounting them: per-kind counters plus first-N samples
	// with line provenance. Real archives always contain noise; this is the
	// graceful-degradation mode the study's measurements ran under.
	Lenient Mode = iota
	// Strict surfaces the first malformed line as a typed *Error carrying
	// the archive name and line number, for pipelines that would rather
	// fail fast than measure on a silently degraded input.
	Strict

	numModes // sentinel; keep last
)

// String names the mode as accepted by ParseModeFlag.
func (m Mode) String() string {
	switch m {
	case Lenient:
		return "lenient"
	case Strict:
		return "strict"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ModeFromString parses the -parse-mode flag vocabulary.
func ModeFromString(s string) (Mode, error) {
	switch s {
	case "lenient", "":
		return Lenient, nil
	case "strict":
		return Strict, nil
	default:
		return Lenient, fmt.Errorf("parse: unknown mode %q (want lenient or strict)", s)
	}
}

// Kind classifies why a line failed to parse. The per-kind counters in
// ParseStats let the robustness suite reconcile injected corruption
// (internal/mutate records what it injected; the pipeline must account it).
type Kind int

const (
	// KindStructure: the line's field skeleton is wrong (missing separator,
	// wrong field count, bad record type, inconsistent counts).
	KindStructure Kind = iota
	// KindTimestamp: the timestamp field failed to parse.
	KindTimestamp
	// KindField: a key=value field is malformed, missing or non-numeric.
	KindField
	// KindEncoding: the line carries NUL bytes or invalid UTF-8.
	KindEncoding
	// KindOversize: the line exceeds MaxLineBytes.
	KindOversize

	numKinds // sentinel; keep last
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindStructure:
		return "structure"
	case KindTimestamp:
		return "timestamp"
	case KindField:
		return "field"
	case KindEncoding:
		return "encoding"
	case KindOversize:
		return "oversize"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// MaxLineBytes is the per-line acceptance cap: longer lines are malformed
// (KindOversize) rather than fatal. It matches the former bufio.Scanner
// buffer limit of the pre-ParseMode scanners, so well-formed archives parse
// identically.
const MaxLineBytes = 1 << 20

// AbsMaxLineBytes is the hard abort threshold: a "line" this long means the
// input is not line-structured at all (or the reader is walking a binary
// blob), and both modes fail the block read with bufio.ErrTooLong. A
// variable so tests can exercise the abort path without 64 MiB fixtures.
var AbsMaxLineBytes = 64 << 20

// SampleTextBytes caps the offending-line text retained in errors and
// samples; provenance should be greppable, not a second copy of the archive.
const SampleTextBytes = 160

// Truncate caps s to SampleTextBytes for retention in errors and samples.
func Truncate(s string) string {
	if len(s) <= SampleTextBytes {
		return s
	}
	return s[:SampleTextBytes]
}

// Error is the typed malformed-line error shared by every format parser.
// Parsers fill Kind, Reason and Text; the block parsers add Line; the core
// pipeline stamps Archive before surfacing it in strict mode.
type Error struct {
	// Archive names the log source ("accounting", "apsys", "syslog");
	// empty until the pipeline attaches it.
	Archive string
	// Line is the 1-based line number in the archive; 0 when unknown.
	Line int
	// Kind classifies the failure.
	Kind Kind
	// Reason is the human-readable parser detail.
	Reason string
	// Text is the offending line, truncated to SampleTextBytes.
	Text string
}

// Error implements the error interface.
func (e *Error) Error() string {
	var b strings.Builder
	if e.Archive != "" {
		b.WriteString(e.Archive)
		b.WriteString(": ")
	}
	if e.Line > 0 {
		fmt.Fprintf(&b, "line %d: ", e.Line)
	}
	b.WriteString(e.Reason)
	if e.Text != "" {
		fmt.Fprintf(&b, ": %.80q", e.Text)
	}
	return b.String()
}

// Errorf builds an *Error of the given kind with a formatted reason.
func Errorf(kind Kind, text, format string, args ...any) *Error {
	return &Error{Kind: kind, Reason: fmt.Sprintf(format, args...), Text: Truncate(text)}
}

// KindCounts is the per-kind malformed-line breakdown of one archive.
type KindCounts struct {
	Structure, Timestamp, Field, Encoding, Oversize int
}

// Add increments the counter for kind k.
func (c *KindCounts) Add(k Kind) {
	switch k {
	case KindStructure:
		c.Structure++
	case KindTimestamp:
		c.Timestamp++
	case KindField:
		c.Field++
	case KindEncoding:
		c.Encoding++
	case KindOversize:
		c.Oversize++
	default:
		c.Structure++
	}
}

// Merge folds o into c.
func (c *KindCounts) Merge(o KindCounts) {
	c.Structure += o.Structure
	c.Timestamp += o.Timestamp
	c.Field += o.Field
	c.Encoding += o.Encoding
	c.Oversize += o.Oversize
}

// Total is the malformed-line count across all kinds.
func (c KindCounts) Total() int {
	return c.Structure + c.Timestamp + c.Field + c.Encoding + c.Oversize
}

// Count returns the counter for kind k.
func (c KindCounts) Count(k Kind) int {
	switch k {
	case KindStructure:
		return c.Structure
	case KindTimestamp:
		return c.Timestamp
	case KindField:
		return c.Field
	case KindEncoding:
		return c.Encoding
	case KindOversize:
		return c.Oversize
	default:
		return 0
	}
}

// Sample is one retained malformed-line provenance record.
type Sample struct {
	Archive string
	Line    int
	Kind    Kind
	Reason  string
	Text    string
}

// String renders the sample like the equivalent strict-mode error.
func (s Sample) String() string {
	e := Error{Archive: s.Archive, Line: s.Line, Kind: s.Kind, Reason: s.Reason, Text: s.Text}
	return e.Error()
}

// MaxSamples bounds the provenance samples retained per archive. A fixed
// array (not a slice) keeps LineStats — and hence core.ParseStats —
// comparable with ==, which the ingestion differential tests rely on.
const MaxSamples = 8

// SampleSet retains the first MaxSamples malformed-line samples in archive
// order.
type SampleSet struct {
	// N is the number of filled entries.
	N int
	// Samples holds the first N samples; entries beyond N are zero.
	Samples [MaxSamples]Sample
}

// Add retains s if capacity remains.
func (s *SampleSet) Add(x Sample) {
	if s.N < MaxSamples {
		s.Samples[s.N] = x
		s.N++
	}
}

// Merge appends o's samples (in order) until capacity.
func (s *SampleSet) Merge(o SampleSet) {
	for i := 0; i < o.N; i++ {
		s.Add(o.Samples[i])
	}
}

// All returns the retained samples.
func (s *SampleSet) All() []Sample {
	return s.Samples[:s.N]
}

// LineStats is the malformed-line accounting of one archive: per-kind
// counters plus first-N provenance samples. The per-block stats travel with
// each block and merge on the single consumer goroutine in archive order, so
// an archive's LineStats do not depend on how it was split into blocks.
type LineStats struct {
	Kinds   KindCounts
	Samples SampleSet
}

// Record accounts one malformed line.
func (s *LineStats) Record(e *Error) {
	s.Kinds.Add(e.Kind)
	s.Samples.Add(Sample{Archive: e.Archive, Line: e.Line, Kind: e.Kind, Reason: e.Reason, Text: e.Text})
}

// Merge folds o into s in archive order.
func (s *LineStats) Merge(o LineStats) {
	s.Kinds.Merge(o.Kinds)
	s.Samples.Merge(o.Samples)
}

// Malformed is the total malformed-line count.
func (s LineStats) Malformed() int { return s.Kinds.Total() }

// SetArchive stamps the archive name onto every retained sample.
func (s *LineStats) SetArchive(name string) {
	for i := 0; i < s.Samples.N; i++ {
		s.Samples.Samples[i].Archive = name
	}
}
