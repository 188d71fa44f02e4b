package syslogx

// The string-form reference of the syslog line parser. No product code calls
// it: it is the independent implementation CheckLineBytes is pinned to
// (TestCheckLineBytesMatchesCheckLine, FuzzParse).

import (
	"strings"
	"time"

	"logdiver/internal/parse"
)

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

// CheckLine is the string-form reference of CheckLineBytes: blank lines are
// skipped silently (skip == true), lines failing the shared
// encoding/oversize checks or the format parse return a typed *parse.Error,
// and everything else yields the parsed Line. The shared checks are
// parse.CheckLineBytes, which package parse pins to its own string
// reference.
func CheckLine(text string) (l Line, skip bool, perr *parse.Error) {
	if strings.TrimSpace(text) == "" {
		return Line{}, true, nil
	}
	if e := parse.CheckLineBytes([]byte(text)); e != nil {
		return Line{}, false, e
	}
	l, err := Parse(text)
	if err != nil {
		return Line{}, false, err.(*parse.Error)
	}
	return l, false, nil
}

// lineOf copies a view into a Line, for comparison with the reference.
func lineOf(v LineView) Line {
	return Line{Time: v.Time, Host: string(v.Host), Tag: string(v.Tag), Message: string(v.Msg)}
}
