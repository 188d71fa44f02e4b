package wlm

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"logdiver/internal/parse"
)

// scanDiffLines covers the acceptance surface the byte scanner must
// reproduce bit-for-bit: canonical and non-canonical timestamps, every
// record type, last-wins duplicate keys, Unicode field separators,
// unparseable numerics (ignored, not errors), and the malformed classes
// from wlmErrorCases.
var scanDiffLines = []string{
	"04/03/2013 12:00:01;E;9.bw;Exit_status=0 user=alice",
	"04/03/2013 12:00:00;S;123.bw;user=bob account=acct queue=debug Resource_List.nodect=128 Resource_List.walltime=12:00:00 ctime=1364995000 start=1364996000",
	"04/03/2013 13:00:00;E;123.bw;user=bob end=1365000000 resources_used.walltime=02:30:15 Exit_status=265",
	"04/03/2013 13:00:00;A;123.bw;",
	"4/3/2013 2:00:00;E;77.bw;user=x",                    // non-canonical stamp: fallback parse
	"04/03/2013 12:00:00;E;55.bw;user=a user=b",          // duplicate key: last wins
	"04/03/2013 12:00:00;E;56.bw;user=a\u00a0account=b",  // NBSP separates fields like strings.Fields
	"04/03/2013 12:00:00;E;56b.bw;user=a\u2003account=b", // EM SPACE likewise
	"04/03/2013 12:00:00;E;57.bw;Resource_List.nodect=notanum Exit_status=99999999999999999999",
	"04/03/2013 12:00:00;E;58.bw;Resource_List.walltime=1:2:3 resources_used.walltime=100:00:00",
	"04/03/2013 12:00:00;E;59.bw;Exit_status=-11 start= ctime=x",
	"04/03/2013 12:00:00;Q;60.bw;queue=high",
	"", "   ", "\t",
}

func scanRecordsEqual(t *testing.T, line string, got, want ScanRecord) {
	t.Helper()
	if string(got.JobID) != string(want.JobID) || got.Has != want.Has ||
		got.Walltime != want.Walltime || got.UsedWalltime != want.UsedWalltime {
		t.Errorf("CheckLineBytes(%q) = {%s %v %v %b}, string path {%s %v %v %b}", line,
			got.JobID, got.Walltime, got.UsedWalltime, got.Has,
			want.JobID, want.Walltime, want.UsedWalltime, want.Has)
	}
}

// zoneStampLines carry stamps a zone could read differently: wall times in
// a DST gap or overlap of America/Chicago (2013-03-10 02:30, 2013-11-03
// 01:30) and of Australia/Lord_Howe (2013-10-06 02:15, 2013-04-07 01:45),
// canonical and not, and stamps no zone accepts.
var zoneStampLines = []string{
	"03/10/2013 02:30:00;E;80.bw;resources_used.walltime=01:00:00",
	"03/10/2013 2:30:00;E;81.bw;resources_used.walltime=01:00:00",
	"3/10/2013 02:30:00;E;82.bw;resources_used.walltime=01:00:00",
	"11/03/2013 01:30:00;S;83.bw;Resource_List.walltime=02:00:00",
	"11/03/2013 1:30:00;S;84.bw;Resource_List.walltime=02:00:00",
	"10/06/2013 02:15:00;E;85.bw;user=x",
	"10/06/2013 2:15:00;E;86.bw;user=x",
	"04/07/2013 01:45:00;E;87.bw;user=x",
	"04/07/2013 1:45:00;E;88.bw;user=x",
	"02/29/2013 12:00:00;E;89.bw;user=x", // 2013 has no February 29
	"02/29/2013 2:30:00;E;90.bw;user=x",
	"03/10/2013 24:30:00;E;91.bw;user=x",
	"03/10/2013 02:30:00 CDT;E;92.bw;user=x", // a zone suffix is not in the layout
}

// TestCheckLineBytesMatchesCheckLine pins the byte scanner to the string
// reference line by line — same skips, same typed errors (kind and text),
// records with the same job ID and walltimes — and pins that the zone
// changes no outcome: in every zone the record, the skip and the error
// (kind, reason and text) equal those under nil, the zone ingestion uses.
func TestCheckLineBytesMatchesCheckLine(t *testing.T) {
	lines := append([]string{}, scanDiffLines...)
	for _, tc := range wlmErrorCases {
		lines = append(lines, tc.line)
	}
	lines = append(lines, zoneStampLines...)
	zones := []*time.Location{nil, time.UTC}
	for _, name := range []string{"America/Chicago", "Australia/Lord_Howe"} {
		loc, err := time.LoadLocation(name)
		if err != nil {
			t.Fatal(err)
		}
		zones = append(zones, loc)
	}
	for _, line := range lines {
		baseRec, baseSkip, baseErr := CheckLineBytes([]byte(line), nil)
		for _, loc := range zones {
			gotRec, gotSkip, gotErr := CheckLineBytes([]byte(line), loc)
			if gotSkip != baseSkip || !reflect.DeepEqual(gotErr, baseErr) || !reflect.DeepEqual(gotRec, baseRec) {
				t.Errorf("CheckLineBytes(%q) in %v = (%+v, %v, %+v), in nil (%+v, %v, %+v)",
					line, loc, gotRec, gotSkip, gotErr, baseRec, baseSkip, baseErr)
			}
			// The string reference requires a location; nil reads as UTC.
			ref := loc
			if ref == nil {
				ref = time.UTC
			}
			wantRec, wantSkip, wantErr := CheckLine(line, ref)
			if gotSkip != wantSkip {
				t.Errorf("CheckLineBytes(%q) in %v skip = %v, want %v", line, loc, gotSkip, wantSkip)
				continue
			}
			if (gotErr == nil) != (wantErr == nil) {
				t.Errorf("CheckLineBytes(%q) in %v err = %v, string path %v", line, loc, gotErr, wantErr)
				continue
			}
			if wantErr != nil {
				if gotErr.Kind != wantErr.Kind || gotErr.Error() != wantErr.Error() {
					t.Errorf("CheckLineBytes(%q) in %v err = %q (%v), string path %q (%v)",
						line, loc, gotErr.Error(), gotErr.Kind, wantErr.Error(), wantErr.Kind)
				}
				continue
			}
			if wantSkip {
				continue
			}
			scanRecordsEqual(t, line, gotRec, scanFromRecord(wantRec))
		}
	}
}

// TestScanBlockModeMatchesScanner pins the ingestion block parser to the
// reference scan (a bufio.Scanner over CheckLine): same records, same
// lenient accounting, and the same first-malformed-line strict error. The
// block starts at archive line 42.
func TestScanBlockModeMatchesScanner(t *testing.T) {
	var good, mixed strings.Builder
	for _, l := range scanDiffLines {
		good.WriteString(l)
		good.WriteByte('\n')
	}
	mixed.WriteString(good.String())
	for _, tc := range wlmErrorCases {
		mixed.WriteString(tc.line)
		mixed.WriteByte('\n')
	}
	mixed.WriteString(wlmGoodLine) // no trailing newline: final fragment

	const firstLine = 42
	for _, tc := range []struct {
		name  string
		block string
		mode  parse.Mode
	}{
		{"good strict", good.String(), parse.Strict},
		{"good lenient", good.String(), parse.Lenient},
		{"mixed strict", mixed.String(), parse.Strict},
		{"mixed lenient", mixed.String(), parse.Lenient},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantRecs, wantStats, wantErr := refScan(tc.block, time.UTC, firstLine, tc.mode)
			gotRecs, gotStats, gotErr := ScanBlockMode([]byte(tc.block), time.UTC, firstLine, tc.mode)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("ScanBlockMode err = %v, reference err = %v", gotErr, wantErr)
			}
			if wantErr != nil {
				var wantPerr, gotPerr *parse.Error
				if !errors.As(wantErr, &wantPerr) || !errors.As(gotErr, &gotPerr) {
					t.Fatalf("non-typed errors: %v vs %v", gotErr, wantErr)
				}
				if gotPerr.Line != wantPerr.Line || gotPerr.Kind != wantPerr.Kind || gotPerr.Error() != wantPerr.Error() {
					t.Fatalf("strict error = %q line %d, want %q line %d",
						gotPerr.Error(), gotPerr.Line, wantPerr.Error(), wantPerr.Line)
				}
				return
			}
			if len(gotRecs) != len(wantRecs) {
				t.Fatalf("got %d records, want %d", len(gotRecs), len(wantRecs))
			}
			for i := range gotRecs {
				scanRecordsEqual(t, "block line", gotRecs[i], scanFromRecord(wantRecs[i]))
			}
			if !reflect.DeepEqual(gotStats, wantStats) {
				t.Errorf("stats = %+v, want %+v", gotStats, wantStats)
			}
		})
	}
}

// TestAddScanMatchesAdd feeds the same stream through the view-based fold
// and the map-based reference fold and requires identical job tables.
func TestAddScanMatchesAdd(t *testing.T) {
	viaAdd := NewAssembler()
	viaScan := NewAssembler()
	for _, line := range scanDiffLines {
		rec, skip, perr := CheckLine(line, time.UTC)
		if skip || perr != nil {
			continue
		}
		if err := viaAdd.Add(rec); err != nil {
			t.Fatal(err)
		}
		sr, _, _ := CheckLineBytes([]byte(line), time.UTC)
		if err := viaScan.AddScan(sr); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := viaAdd.Jobs(), viaScan.Jobs(); !reflect.DeepEqual(a, b) {
		t.Errorf("Add jobs = %+v\nAddScan jobs = %+v", a, b)
	}
}

// TestCheckLineBytesZeroAlloc gates the per-line fast path: scanning a
// canonical record and folding it into an assembler that has seen its job
// must not allocate, on every accepting branch — each record type, a Unicode
// field separator, unparseable numerics and walltimes (dropped, not errors),
// the nil location — and on the blank-line skip.
func TestCheckLineBytesZeroAlloc(t *testing.T) {
	lines := []string{
		"04/03/2013 12:00:00;S;123.bw;user=bob account=acct queue=debug Resource_List.nodect=128 Resource_List.walltime=12:00:00 ctime=1364995000 start=1364996000",
		"04/03/2013 13:00:00;E;123.bw;user=bob\u00a0resources_used.walltime=02:30:15 Exit_status=265",
		"04/03/2013 13:00:00;A;123.bw;Resource_List.nodect=x ctime=x start=x end=x Exit_status=x",
		"04/03/2013 13:00:00;Q;123.bw;Resource_List.walltime=12 resources_used.walltime=12:00",
		"04/03/2013 13:00:00;D;123.bw;Resource_List.walltime=1:2:3:4 resources_used.walltime=x:00:00",
		"04/03/2013 13:00:00;E;124.bw;Resource_List.walltime=1:60:00 resources_used.walltime=1:00:60",
		"   ",
	}
	asm := NewAssembler() // AllocsPerRun's warm-up call is each job's first sight
	for _, line := range lines {
		b, blank := []byte(line), parse.Blank([]byte(line))
		if n := testing.AllocsPerRun(200, func() {
			r, skip, perr := CheckLineBytes(b, nil)
			if skip != blank || perr != nil || (!skip && asm.AddScan(r) != nil) {
				t.Fatalf("CheckLineBytes(%q) = skip %v, err %v", line, skip, perr)
			}
		}); n != 0 {
			t.Errorf("CheckLineBytes+AddScan(%q) allocates %.1f allocs/op, want 0", line, n)
		}
	}
}

// TestAssemblerAllocatesNoJobRecord: the table is one slice of jobs, so
// assembling n distinct jobs allocates each job's ID string and the amortized
// growth of the slice and the index, not a record per job.
func TestAssemblerAllocatesNoJobRecord(t *testing.T) {
	const n = 1000
	base := sampleJob()
	recs := make([]ScanRecord, n)
	for i := range recs {
		j := base
		j.ID = fmt.Sprintf("%d.bw", 1000000+i)
		rec, skip, perr := CheckLineBytes([]byte(FormatRecord(EndRecord(j))), time.UTC)
		if skip || perr != nil {
			t.Fatalf("record %d: skip %v, error %v", i, skip, perr)
		}
		recs[i] = rec
	}
	allocs := testing.AllocsPerRun(5, func() {
		a := NewAssembler()
		for _, rec := range recs {
			if err := a.AddScan(rec); err != nil {
				t.Fatal(err)
			}
		}
	})
	if ceiling := float64(n + n/10); allocs > ceiling {
		t.Errorf("assembling %d jobs allocated %.0f times, ceiling %.0f (one ID string per job plus growth)", n, allocs, ceiling)
	}
}
