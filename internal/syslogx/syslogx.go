// Package syslogx reads and writes the syslog-style line format used by the
// synthesized system logs. The format mirrors the ISO-timestamped logs
// produced by the Cray Lightweight Log Manager (LLM):
//
//	2013-04-03T12:34:56.123456-05:00 c1-3c2s7n1 kernel: <message body>
//
// i.e. an RFC 3339 timestamp with microsecond precision, the originating
// host (a node cname or a service host such as "smw" or "sdb"), a program
// tag terminated by a colon, and the free-form message body.
package syslogx

import (
	"bufio"
	"io"
	"strings"
	"time"

	"logdiver/internal/parse"
)

// Line is one parsed syslog record.
type Line struct {
	Time time.Time
	// Host is the originating component: a node cname or service host name.
	Host string
	// Tag is the program tag without the trailing colon (e.g. "kernel").
	Tag string
	// Message is the free-form body.
	Message string
}

// timeLayout is RFC 3339 with microseconds, as written by LLM.
const timeLayout = "2006-01-02T15:04:05.000000Z07:00"

// Format renders the line in wire format without a trailing newline.
func Format(l Line) string {
	var b strings.Builder
	b.Grow(len(l.Host) + len(l.Tag) + len(l.Message) + 40)
	b.WriteString(l.Time.Format(timeLayout))
	b.WriteByte(' ')
	b.WriteString(l.Host)
	b.WriteByte(' ')
	b.WriteString(l.Tag)
	b.WriteString(": ")
	b.WriteString(l.Message)
	return b.String()
}

// ParseError is the typed malformed-line error shared across the format
// parsers; see parse.Error for the field semantics (Kind, Line, Archive).
type ParseError = parse.Error

// Parse parses one wire-format line. Errors are *parse.Error values
// carrying a Kind (timestamp, structure, ...) for the per-kind malformed
// accounting of the ingestion pipeline.
func Parse(s string) (Line, error) {
	var l Line
	ts, rest, ok := strings.Cut(s, " ")
	if !ok {
		return l, parse.Errorf(parse.KindStructure, s, "missing timestamp field")
	}
	t, err := time.Parse(timeLayout, ts)
	if err != nil {
		return l, parse.Errorf(parse.KindTimestamp, s, "bad timestamp: %s", err.Error())
	}
	host, rest, ok := strings.Cut(rest, " ")
	if !ok || host == "" {
		return l, parse.Errorf(parse.KindStructure, s, "missing host field")
	}
	tag, msg, ok := strings.Cut(rest, ": ")
	if !ok {
		// Accept a tag with no message body ("tag:").
		if tagOnly, okColon := strings.CutSuffix(rest, ":"); okColon && !strings.Contains(tagOnly, " ") {
			tag, msg = tagOnly, ""
		} else {
			return l, parse.Errorf(parse.KindStructure, s, "missing tag separator")
		}
	}
	if tag == "" || strings.Contains(tag, " ") {
		return l, parse.Errorf(parse.KindStructure, s, "malformed tag")
	}
	l.Time = t
	l.Host = host
	l.Tag = tag
	l.Message = msg
	return l, nil
}

// CheckLine is the single authoritative per-line acceptance function of the
// syslog format in string form, shared by the Scanner and the robustness
// reconciler (CheckLineBytes is its ingestion twin, pinned to it by the
// differential tests): blank lines are skipped silently
// (skip == true), lines failing the shared encoding/oversize checks or the
// format parse return a typed *parse.Error, and everything else yields the
// parsed Line.
func CheckLine(text string) (l Line, skip bool, perr *parse.Error) {
	if strings.TrimSpace(text) == "" {
		return Line{}, true, nil
	}
	if e := parse.CheckLine(text); e != nil {
		return Line{}, false, e
	}
	l, err := Parse(text)
	if err != nil {
		return Line{}, false, err.(*parse.Error)
	}
	return l, false, nil
}

// Writer emits lines in wire format.
type Writer struct {
	w   *bufio.Writer
	err error
	n   int
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

// Write emits one line. After the first error all subsequent writes are
// no-ops returning the same error.
func (w *Writer) Write(l Line) error {
	if w.err != nil {
		return w.err
	}
	if _, err := w.w.WriteString(Format(l)); err != nil {
		w.err = err
		return err
	}
	if err := w.w.WriteByte('\n'); err != nil {
		w.err = err
		return err
	}
	w.n++
	return nil
}

// Count returns the number of well-formed lines written so far (raw lines
// are not counted).
func (w *Writer) Count() int { return w.n }

// Flush flushes buffered output.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.w.Flush()
	return w.err
}

// Scanner streams lines from a reader. In lenient mode (the NewScanner
// default) malformed lines are skipped and accounted — per-kind counters
// plus first-N provenance samples — as real log archives always contain
// noise. In strict mode the scan stops at the first malformed line and Err
// returns the typed *parse.Error with its line number.
type Scanner struct {
	lr     *parse.LineReader
	mode   parse.Mode
	line   Line
	lineNo int
	stats  parse.LineStats
	err    error
}

// NewScanner wraps r in lenient mode.
func NewScanner(r io.Reader) *Scanner {
	return NewScannerMode(r, parse.Lenient)
}

// NewScannerMode wraps r with an explicit malformed-line policy.
func NewScannerMode(r io.Reader, mode parse.Mode) *Scanner {
	return &Scanner{lr: parse.NewLineReader(r), mode: mode}
}

// Scan advances to the next well-formed line. It returns false at end of
// input, on a read error, or (strict mode) at the first malformed line.
func (s *Scanner) Scan() bool {
	if s.err != nil {
		return false
	}
	for {
		text, no, ok := s.lr.Next()
		if !ok {
			s.err = s.lr.Err()
			return false
		}
		l, skip, perr := CheckLine(text)
		if skip {
			continue
		}
		if perr != nil {
			perr.Line = no
			if s.mode == parse.Strict {
				s.err = perr
				return false
			}
			s.stats.Record(perr)
			continue
		}
		s.line, s.lineNo = l, no
		return true
	}
}

// Line returns the most recently scanned line.
func (s *Scanner) Line() Line { return s.line }

// LineNo returns the 1-based archive line number of the most recently
// scanned line.
func (s *Scanner) LineNo() int { return s.lineNo }

// Malformed returns the number of lines skipped as unparseable (lenient
// mode).
func (s *Scanner) Malformed() int { return s.stats.Malformed() }

// Stats returns the malformed-line accounting of the scan so far.
func (s *Scanner) Stats() parse.LineStats { return s.stats }

// Err returns the first read error encountered, if any; in strict mode the
// first malformed line surfaces here as a *parse.Error.
func (s *Scanner) Err() error { return s.err }
