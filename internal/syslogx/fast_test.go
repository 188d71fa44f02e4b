package syslogx

import (
	"reflect"
	"testing"
	"time"
)

// fastDiffLines covers the acceptance surface the byte scanner must
// reproduce bit-for-bit: the canonical Zulu stamp (fast path), numeric
// offsets (fallback through time.Parse), fractional-second and structure
// variants, and the malformed classes from syslogErrorCases.
var fastDiffLines = []string{
	"2013-04-03T12:34:56.123456Z c0-0c0s0n1 kernel: machine check",
	"2013-04-03T12:34:56.123456-05:00 c0-0c0s0n1 kernel: Lustre: request timed out",
	"2013-04-03T12:34:56.123456+01:30 sdb xtevent: heartbeat fault",
	"2013-04-03T23:59:59.999999Z nid00012 apsys: apid=1, Starting",
	"2013-02-28T00:00:00.000000Z host tag: leap boundary",
	"2012-02-29T00:00:00.000000Z host tag: leap day",
	"2013-04-03T12:34:56Z host kernel: no fractional seconds",
	"2013-04-31T12:34:56.000000Z host kernel: impossible day",
	"2013-04-03T12:34:56.123456Z host kernel:",
	"2013-04-03T12:34:56.123456Z host tag: message: with: colons",
	"2013-04-03T12:34:56.123456Z host  kernel: double space",
	"2013-04-03T12:34:57.000000Z c0-0c0s0n1 kernel: Machine Check Exception: corrected DRAM error on c0-0c0s0n1 bank 2 DIMM 1 syndrome 0x00a1",
	"2013-04-03T12:34:58.000001+00:00 smw xtnlrd: nothing any rule matches",
	"2013-04-03T12:35:00.000000Z c0-0c0s1n0 kernel: LustreError: 11-0: an error occurred while communicating",
	"", "   ",
}

// TestCheckLineBytesMatchesCheckLine pins the byte scanner to the string
// reference line by line: same skips, same typed errors, and identical
// field values.
func TestCheckLineBytesMatchesCheckLine(t *testing.T) {
	lines := append([]string{}, fastDiffLines...)
	for _, tc := range syslogErrorCases {
		lines = append(lines, tc.line)
	}
	for _, line := range lines {
		want, wantSkip, wantErr := CheckLine(line)
		view, gotSkip, gotErr := CheckLineBytes([]byte(line))
		if gotSkip != wantSkip {
			t.Errorf("CheckLineBytes(%q) skip = %v, want %v", line, gotSkip, wantSkip)
			continue
		}
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("CheckLineBytes(%q) err = %v, string path %v", line, gotErr, wantErr)
			continue
		}
		if wantErr != nil {
			if gotErr.Kind != wantErr.Kind || gotErr.Error() != wantErr.Error() {
				t.Errorf("CheckLineBytes(%q) err = %q (%v), string path %q (%v)",
					line, gotErr.Error(), gotErr.Kind, wantErr.Error(), wantErr.Kind)
			}
			continue
		}
		if wantSkip {
			continue
		}
		got := lineOf(view)
		if !got.Time.Equal(want.Time) {
			t.Errorf("CheckLineBytes(%q) Time = %v, want %v", line, got.Time, want.Time)
		}
		got.Time = want.Time
		if !reflect.DeepEqual(got, want) {
			t.Errorf("CheckLineBytes(%q) = %+v, want %+v", line, got, want)
		}
	}
}

// TestParseStampFastAgreesWithLayout: every stamp the fast path accepts
// must decode to the same instant the layout parse produces, and the fast
// path must never accept a stamp the layout rejects.
func TestParseStampFastAgreesWithLayout(t *testing.T) {
	stamps := []string{
		"2013-04-03T12:34:56.123456Z",
		"2012-02-29T00:00:00.000000Z",
		"2013-02-29T00:00:00.000000Z", // not a leap year
		"2013-00-03T12:34:56.123456Z",
		"2013-13-03T12:34:56.123456Z",
		"2013-04-00T12:34:56.123456Z",
		"2013-04-31T12:34:56.123456Z",
		"2013-04-03T24:00:00.000000Z",
		"2013-04-03T12:60:00.000000Z",
		"2013-04-03T12:34:60.000000Z",
		"2013-04-03T12:34:56.12345Z",
		"2013-04-03 12:34:56.123456Z",
	}
	for _, s := range stamps {
		at, ok := parseStampFast([]byte(s))
		want, err := time.Parse(timeLayout, s)
		if ok && err != nil {
			t.Errorf("parseStampFast(%q) accepted a stamp the layout rejects (%v)", s, err)
			continue
		}
		if ok && !at.Equal(want) {
			t.Errorf("parseStampFast(%q) = %v, layout = %v", s, at, want)
		}
	}
}

// TestCheckLineBytesZeroAlloc gates the per-line fast path: every accepting
// branch — a tag with a body, a tag with none — and the blank-line skip must
// scan a canonical Zulu-stamped line without allocating.
func TestCheckLineBytesZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		line string
		skip bool
	}{
		{"2013-04-03T12:34:56.123456Z c0-0c0s0n1 kernel: machine check exception", false},
		{"2013-04-03T12:34:56.123456Z host tag:", false},
		{"  ", true},
	} {
		line := []byte(tc.line)
		if n := testing.AllocsPerRun(200, func() {
			_, skip, perr := CheckLineBytes(line)
			if skip != tc.skip || perr != nil {
				t.Fatalf("CheckLineBytes(%q) = skip %v, err %v; want skip %v", tc.line, skip, perr, tc.skip)
			}
		}); n != 0 {
			t.Errorf("CheckLineBytes(%q) allocates %.1f allocs/op on the fast path, want 0", tc.line, n)
		}
	}
}
