// Package parse defines the shared vocabulary of corruption-tolerant
// ingestion: the strict/lenient parse mode, the typed malformed-line error
// every format parser reports, per-kind malformed counters with first-N
// provenance samples, and a line reader that tolerates oversized lines
// instead of aborting the scan. The format parsers (internal/wlm,
// internal/alps, internal/syslogx) produce these types; internal/core
// aggregates them into ParseStats and threads the mode through ingestion.
package parse

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
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
)

// String names the mode as accepted by ParseModeFlag.
func (m Mode) String() string {
	//ldvet:exhaustive
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
)

// String names the kind.
func (k Kind) String() string {
	//ldvet:exhaustive
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
// blob), and both modes fail the scan with bufio.ErrTooLong. A variable so
// tests can exercise the abort path without 64 MiB fixtures.
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
// Parsers fill Kind, Reason and Text; the scanners add Line; the core
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

// CheckLine applies the format-independent acceptance checks every parser
// shares: the line must fit MaxLineBytes, carry no NUL bytes, and be valid
// UTF-8. Returns nil when the line passes.
func CheckLine(text string) *Error {
	if len(text) > MaxLineBytes {
		return Errorf(KindOversize, text, "line exceeds %d bytes (%d)", MaxLineBytes, len(text))
	}
	if strings.IndexByte(text, 0) >= 0 {
		return Errorf(KindEncoding, text, "NUL byte in line")
	}
	if !utf8.ValidString(text) {
		return Errorf(KindEncoding, text, "invalid UTF-8")
	}
	return nil
}

// KindCounts is the per-kind malformed-line breakdown of one archive.
type KindCounts struct {
	Structure, Timestamp, Field, Encoding, Oversize int
}

// Add increments the counter for kind k.
func (c *KindCounts) Add(k Kind) {
	//ldvet:exhaustive
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
	//ldvet:exhaustive
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
// counters plus first-N provenance samples. The string scanners and the
// block parsers produce identical LineStats for identical input —
// the per-block stats travel with each block and merge on the single
// consumer goroutine in archive order.
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

// LineReader yields lines from r with their 1-based line numbers. Unlike
// bufio.Scanner it does not abort on long lines: lines up to AbsMaxLineBytes
// are returned whole (the parsers flag those beyond MaxLineBytes as
// KindOversize); only beyond AbsMaxLineBytes does the scan fail with
// bufio.ErrTooLong. Semantics otherwise match bufio.ScanLines: '\n'
// terminates a line, one trailing '\r' is stripped, and a final
// unterminated line is still yielded.
type LineReader struct {
	r      *bufio.Reader
	spill  []byte // reused accumulator for lines spanning buffer boundaries
	lineNo int
	err    error
	done   bool
}

// NewLineReader wraps r.
func NewLineReader(r io.Reader) *LineReader {
	return &LineReader{r: bufio.NewReaderSize(r, 1<<16)}
}

// Next returns the next line (without its terminator) and its 1-based line
// number. ok is false at end of input or on error; check Err.
func (l *LineReader) Next() (line string, lineNo int, ok bool) {
	b, no, ok := l.NextBytes()
	if !ok {
		return "", 0, false
	}
	return string(b), no, true
}

// NextBytes is the zero-allocation form of Next: the returned slice is a
// view into the reader's internal buffer and is only valid until the next
// NextBytes (or Next) call. Callers that retain line content must copy it.
//
//ldvet:hotpath
func (l *LineReader) NextBytes() (line []byte, lineNo int, ok bool) {
	if l.err != nil || l.done {
		return nil, 0, false
	}
	frag, err := l.r.ReadSlice('\n')
	if err == nil {
		if len(frag) > AbsMaxLineBytes {
			l.err = bufio.ErrTooLong
			return nil, 0, false
		}
		l.lineNo++
		return trimEOL(frag), l.lineNo, true
	}
	return l.nextSlow(frag, err)
}

// nextSlow handles the uncommon cases of NextBytes: lines spanning the
// buffered reader's internal buffer (accumulated into the reused spill
// buffer), end of input, and read errors.
func (l *LineReader) nextSlow(frag []byte, err error) (line []byte, lineNo int, ok bool) {
	l.spill = append(l.spill[:0], frag...)
	for {
		if len(l.spill) > AbsMaxLineBytes {
			l.err = bufio.ErrTooLong
			return nil, 0, false
		}
		switch err {
		case nil:
			l.lineNo++
			return trimEOL(l.spill), l.lineNo, true
		case bufio.ErrBufferFull:
			// Keep accumulating.
		case io.EOF:
			if len(l.spill) == 0 {
				l.done = true
				return nil, 0, false
			}
			l.done = true
			l.lineNo++
			return trimEOL(l.spill), l.lineNo, true
		default:
			l.err = err
			return nil, 0, false
		}
		frag, err = l.r.ReadSlice('\n')
		l.spill = append(l.spill, frag...)
	}
}

// trimEOL strips one trailing '\n' and then one trailing '\r', matching
// bufio.ScanLines.
func trimEOL(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	if n := len(b); n > 0 && b[n-1] == '\r' {
		b = b[:n-1]
	}
	return b
}

// Err returns the first read error, if any.
func (l *LineReader) Err() error { return l.err }
