package syslogx

import (
	"bufio"
	"errors"
	"strings"
	"testing"

	"logdiver/internal/parse"
)

// Error-path cases shared by the strict and lenient mode tests. Every entry
// is one malformed syslog line plus the Kind the parsers must report.
var syslogErrorCases = []struct {
	name string
	line string
	kind parse.Kind
}{
	{"truncated record", "2013-04-03T12:34:56.123456-05:00", parse.KindStructure},
	{"missing host", "2013-04-03T12:34:56.123456-05:00 ", parse.KindStructure},
	{"missing tag separator", "2013-04-03T12:34:56.123456-05:00 host no colon here", parse.KindStructure},
	{"bad timestamp", "99/99/99 host kernel: msg", parse.KindTimestamp},
	{"oversized line", "2013-04-03T12:34:56.123456-05:00 host kernel: " + strings.Repeat("x", parse.MaxLineBytes), parse.KindOversize},
	{"invalid utf8", "2013-04-03T12:34:56.123456-05:00 host kernel: \xff\xfe", parse.KindEncoding},
	{"nul byte", "2013-04-03T12:34:56.123456-05:00 host kernel: a\x00b", parse.KindEncoding},
}

const syslogGoodLine = "2013-04-03T12:34:57.000000-05:00 c0-0c0s0n1 kernel: machine check"

// scan is the per-line loop ingestion runs over a syslog archive, in test
// form: a bufio.Scanner feeding CheckLineBytes, lines numbered from 1, the
// first malformed line failing the scan (strict) or each one accounted in
// stats (lenient). Accepted lines are returned as owned copies.
func scan(text string, mode parse.Mode) (lines []Line, stats parse.LineStats, err error) {
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(nil, parse.AbsMaxLineBytes)
	for no := 1; sc.Scan(); no++ {
		v, skip, perr := CheckLineBytes(sc.Bytes())
		switch {
		case skip:
		case perr != nil:
			perr.Line = no
			if mode == parse.Strict {
				return nil, parse.LineStats{}, perr
			}
			stats.Record(perr)
		default:
			lines = append(lines, lineOf(v))
		}
	}
	return lines, stats, sc.Err()
}

// TestScannerModesErrorPaths drives every malformed-line class through the
// CheckLineBytes scan in both modes: strict fails at the bad line with a
// typed, line-numbered error; lenient skips it, still yields the well-formed
// line, and accounts the failure under the right kind with provenance.
func TestScannerModesErrorPaths(t *testing.T) {
	for _, tc := range syslogErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			input := tc.line + "\n" + syslogGoodLine + "\n"

			_, _, err := scan(input, parse.Strict)
			var perr *parse.Error
			if !errors.As(err, &perr) {
				t.Fatalf("strict error %v is not a *parse.Error", err)
			}
			if perr.Kind != tc.kind || perr.Line != 1 {
				t.Errorf("strict error kind=%v line=%d, want kind=%v line=1", perr.Kind, perr.Line, tc.kind)
			}

			lines, st, err := scan(input, parse.Lenient)
			if err != nil {
				t.Fatalf("lenient mode failed: %v", err)
			}
			if len(lines) != 1 {
				t.Errorf("lenient mode yielded %d lines, want 1", len(lines))
			}
			if got := st.Kinds.Count(tc.kind); got != 1 {
				t.Errorf("kind %v counted %d times, want 1", tc.kind, got)
			}
			samples := st.Samples.All()
			if len(samples) != 1 || samples[0].Line != 1 || samples[0].Kind != tc.kind {
				t.Errorf("sample provenance %+v, want line 1 kind %v", samples, tc.kind)
			}
		})
	}
}
