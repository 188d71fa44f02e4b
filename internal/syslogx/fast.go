// Byte-oriented syslog line parser, the one ingestion runs. CheckLineBytes
// parses a line from a byte view without materializing strings; the string
// reference it is pinned to (Parse, CheckLine) lives in reference_test.go,
// where the differential tests and FuzzParse compare the two. Timestamps in
// the canonical wire form take a manual fixed-width parse; any deviation
// falls back to time.Parse, so acceptance and error text are authoritative in
// all cases.

package syslogx

import (
	"bytes"
	"time"

	"logdiver/internal/parse"
)

// LineView is one parsed syslog record as byte views into the caller's
// buffer. Views are valid only as long as the underlying buffer; callers
// that retain fields must copy them.
type LineView struct {
	Time time.Time
	// Host, Tag and Msg alias the input line.
	Host, Tag, Msg []byte
}

// CheckLineBytes is the per-line acceptance function of the syslog format:
// blank lines are skipped (skip == true), lines failing the shared
// encoding/oversize checks or the format parse return a typed *parse.Error,
// and everything else yields the parsed LineView. It allocates only on
// malformed or non-canonical input.
func CheckLineBytes(b []byte) (v LineView, skip bool, perr *parse.Error) {
	if parse.Blank(b) {
		return LineView{}, true, nil
	}
	if e := parse.CheckLineBytes(b); e != nil {
		return LineView{}, false, e
	}
	sp := bytes.IndexByte(b, ' ')
	if sp < 0 {
		return LineView{}, false, errBytes(parse.KindStructure, b, "missing timestamp field")
	}
	ts, rest := b[:sp], b[sp+1:]
	t, ok := parseStampFast(ts)
	if !ok {
		// Non-canonical timestamp: time.Parse is authoritative for both
		// acceptance and error text.
		var err error
		t, err = time.Parse(timeLayout, string(ts))
		if err != nil {
			return LineView{}, false, parse.Errorf(parse.KindTimestamp, parse.SampleText(b), "bad timestamp: %s", err.Error())
		}
	}
	sp = bytes.IndexByte(rest, ' ')
	if sp < 0 || sp == 0 {
		return LineView{}, false, errBytes(parse.KindStructure, b, "missing host field")
	}
	host, rest := rest[:sp], rest[sp+1:]
	var tag, msg []byte
	if i := bytes.Index(rest, []byte(": ")); i >= 0 {
		tag, msg = rest[:i], rest[i+2:]
	} else if n := len(rest); n > 0 && rest[n-1] == ':' && bytes.IndexByte(rest[:n-1], ' ') < 0 {
		// Accept a tag with no message body ("tag:").
		tag, msg = rest[:n-1], nil
	} else {
		return LineView{}, false, errBytes(parse.KindStructure, b, "missing tag separator")
	}
	if len(tag) == 0 || bytes.IndexByte(tag, ' ') >= 0 {
		return LineView{}, false, errBytes(parse.KindStructure, b, "malformed tag")
	}
	return LineView{Time: t, Host: host, Tag: tag, Msg: msg}, false, nil
}

// errBytes builds the typed error with the line text truncated to
// parse.SampleTextBytes.
func errBytes(kind parse.Kind, line []byte, reason string) *parse.Error {
	return parse.Errorf(kind, parse.SampleText(line), "%s", reason)
}

// parseStampFast parses the canonical wire form of timeLayout —
// "2006-01-02T15:04:05.000000Z07:00" with a literal 'Z' zone — without
// allocating. ok is false for anything else (including numeric zone
// offsets, which are rare and routed through time.Parse so Local-zone
// resolution matches exactly).
func parseStampFast(b []byte) (time.Time, bool) {
	if len(b) != 27 || b[26] != 'Z' {
		return time.Time{}, false
	}
	if b[4] != '-' || b[7] != '-' || b[10] != 'T' || b[13] != ':' || b[16] != ':' || b[19] != '.' {
		return time.Time{}, false
	}
	year, ok := parse.Digits(b[0:4])
	if !ok {
		return time.Time{}, false
	}
	mo, ok1 := parse.Digits2(b[5], b[6])
	day, ok2 := parse.Digits2(b[8], b[9])
	hour, ok3 := parse.Digits2(b[11], b[12])
	min, ok4 := parse.Digits2(b[14], b[15])
	sec, ok5 := parse.Digits2(b[17], b[18])
	micro, ok6 := parse.Digits(b[20:26])
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6) {
		return time.Time{}, false
	}
	if mo < 1 || mo > 12 || day < 1 || day > parse.DaysIn(mo, year) || hour > 23 || min > 59 || sec > 59 {
		return time.Time{}, false
	}
	return time.Date(year, time.Month(mo), day, hour, min, sec, micro*1000, time.UTC), true
}
