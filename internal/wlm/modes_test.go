package wlm

import (
	"errors"
	"strings"
	"testing"
	"time"

	"logdiver/internal/parse"
)

// Error-path cases shared by the strict and lenient mode tests. Every entry
// is one malformed accounting line plus the Kind the parsers must report.
var wlmErrorCases = []struct {
	name string
	line string
	kind parse.Kind
}{
	{"truncated record", "04/03/2013 12:00:00;E;123.bw", parse.KindStructure},
	{"bad timestamp", "13/45/2013 99:00:00;E;123.bw;user=x", parse.KindTimestamp},
	{"bad record type", "04/03/2013 12:00:00;Z;123.bw;user=x", parse.KindStructure},
	{"empty job id", "04/03/2013 12:00:00;E;;user=x", parse.KindStructure},
	{"missing field value", "04/03/2013 12:00:00;E;123.bw;garbagefield", parse.KindField},
	{"oversized line", "04/03/2013 12:00:00;E;123.bw;pad=" + strings.Repeat("x", parse.MaxLineBytes), parse.KindOversize},
	{"invalid utf8", "04/03/2013 12:00:00;E;123.bw;user=\xff\xfe", parse.KindEncoding},
	{"nul byte", "04/03/2013 12:00:00;E;123.bw;user=a\x00b", parse.KindEncoding},
}

const wlmGoodLine = "04/03/2013 12:00:01;E;9.bw;Exit_status=0 user=alice"

// TestScannerModesErrorPaths drives every malformed-line class through the
// reference scan (refScan over the string CheckLine) in both modes: strict
// fails at the bad line with a typed, line-numbered error; lenient skips it,
// still yields the well-formed record, and accounts the failure under the
// right kind with provenance. It pins the oracle the block parser is
// compared with.
func TestScannerModesErrorPaths(t *testing.T) {
	for _, tc := range wlmErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			input := tc.line + "\n" + wlmGoodLine + "\n"

			_, _, err := refScan(input, time.UTC, 1, parse.Strict)
			var perr *parse.Error
			if !errors.As(err, &perr) {
				t.Fatalf("strict error %v is not a *parse.Error", err)
			}
			if perr.Kind != tc.kind || perr.Line != 1 {
				t.Errorf("strict error kind=%v line=%d, want kind=%v line=1", perr.Kind, perr.Line, tc.kind)
			}

			recs, st, err := refScan(input, time.UTC, 1, parse.Lenient)
			if err != nil {
				t.Fatalf("lenient mode failed: %v", err)
			}
			if len(recs) != 1 {
				t.Errorf("lenient mode yielded %d records, want 1", len(recs))
			}
			if got := st.Kinds.Count(tc.kind); got != 1 {
				t.Errorf("kind %v counted %d times, want 1", tc.kind, got)
			}
			if st.Malformed() != 1 {
				t.Errorf("Malformed() = %d, want 1", st.Malformed())
			}
			samples := st.Samples.All()
			if len(samples) != 1 || samples[0].Line != 1 || samples[0].Kind != tc.kind {
				t.Errorf("sample provenance %+v, want line 1 kind %v", samples, tc.kind)
			}
		})
	}
}

// TestScanBlockModeErrorPaths drives every malformed-line class through the
// ingestion block parser in both modes, with the expectations
// TestScannerModesErrorPaths holds the reference scan to.
func TestScanBlockModeErrorPaths(t *testing.T) {
	for _, tc := range wlmErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			input := wlmGoodLine + "\n" + tc.line + "\n"

			recs, stats, err := ScanBlockMode([]byte(input), time.UTC, 1, parse.Lenient)
			if err != nil {
				t.Fatalf("lenient block failed: %v", err)
			}
			if len(recs) != 1 || stats.Kinds.Count(tc.kind) != 1 {
				t.Errorf("lenient block: %d records, kind count %d", len(recs), stats.Kinds.Count(tc.kind))
			}
			samples := stats.Samples.All()
			if len(samples) != 1 || samples[0].Line != 2 {
				t.Errorf("block sample %+v, want line 2", samples)
			}

			_, _, err = ScanBlockMode([]byte(input), time.UTC, 1, parse.Strict)
			var perr *parse.Error
			if !errors.As(err, &perr) {
				t.Fatalf("strict block error %v is not a *parse.Error", err)
			}
			if perr.Kind != tc.kind || perr.Line != 2 {
				t.Errorf("strict block error kind=%v line=%d, want kind=%v line=2", perr.Kind, perr.Line, tc.kind)
			}

			// A nonzero block offset shifts reported line numbers.
			_, _, err = ScanBlockMode([]byte(input), time.UTC, 100, parse.Strict)
			if !errors.As(err, &perr) || perr.Line != 101 {
				t.Errorf("offset block error %v, want line 101", err)
			}
		})
	}
}
