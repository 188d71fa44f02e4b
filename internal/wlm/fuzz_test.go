package wlm

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"logdiver/internal/mutate"
	"logdiver/internal/parse"
)

// fuzzInputCap keeps individual archive fuzz executions fast; oversized
// lines are covered by the error-case tables (parse.MaxLineBytes is a
// per-line cap).
const fuzzInputCap = 64 << 10

// cleanAccounting renders n well-formed accounting lines.
func cleanAccounting(n int) []byte {
	var b strings.Builder
	base := time.Date(2013, 4, 3, 12, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		rec := Record{
			Time: base.Add(time.Duration(i) * time.Minute), Type: EventEnd,
			JobID:  "9.bw",
			Fields: map[string]string{"Exit_status": "0", "user": "alice"},
		}
		b.WriteString(FormatRecord(rec))
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// mutateSeeds corrupts a clean archive once per operator and returns the
// variants: the fuzz corpus starts from every corruption class the
// robustness suite defends against, not just from hand-written typos.
func mutateSeeds(clean []byte) [][]byte {
	seeds := [][]byte{clean}
	for i, op := range mutate.AllOps() {
		cfg := mutate.Config{Seed: int64(i + 1), Ops: []mutate.Op{op}, MaxPerOp: 2}
		if op == mutate.OpOversize {
			// Keep oversize seeds within the input cap: enough padding to
			// matter, not a megabyte per seed.
			continue
		}
		out, m := mutate.Apply(clean, cfg)
		if len(m.Mutations) > 0 {
			seeds = append(seeds, out)
		}
	}
	return seeds
}

// seedLines returns the distinct lines of the seeds, in first-seen order.
func seedLines(seeds [][]byte) []string {
	var out []string
	seen := make(map[string]bool)
	for _, s := range seeds {
		for _, line := range strings.Split(string(s), "\n") {
			if !seen[line] {
				seen[line] = true
				out = append(out, line)
			}
		}
	}
	return out
}

// FuzzParseRecord pins the accounting line parser ingestion runs to the
// string reference on arbitrary lines, in UTC and in a fixed non-UTC zone:
// CheckLineBytes must skip, reject (same kind, reason and text) or accept (a
// ScanRecord with the job ID and walltimes of the parsed Record) exactly as
// CheckLine does. Records ParseRecord accepts must also survive the
// assembler.
func FuzzParseRecord(f *testing.F) {
	for _, seed := range []string{
		"04/03/2013 12:00:00;E;123.bw;user=alice Exit_status=0",
		"04/03/2013 12:00:00;Q;123.bw;",
		"04/03/2013 12:00:00;S;123.bw;Resource_List.nodect=16 Resource_List.walltime=01:00:00",
		";;;", "", "bad;E;1;x=y", "04/03/2013 12:00:00;Z;1;x=y",
	} {
		f.Add(seed)
	}
	for _, line := range seedLines(mutateSeeds(cleanAccounting(12))) {
		f.Add(line)
	}
	cst := time.FixedZone("CST", -6*3600)
	f.Fuzz(func(t *testing.T, s string) {
		for _, loc := range []*time.Location{time.UTC, cst} {
			want, wantSkip, wantErr := CheckLine(s, loc)
			got, gotSkip, gotErr := CheckLineBytes([]byte(s), loc)
			if gotSkip != wantSkip {
				t.Fatalf("CheckLineBytes(%q) skip = %v, CheckLine %v", s, gotSkip, wantSkip)
			}
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("CheckLineBytes(%q) err = %v, CheckLine %v", s, gotErr, wantErr)
			}
			if wantErr != nil {
				if gotErr.Kind != wantErr.Kind || gotErr.Reason != wantErr.Reason || gotErr.Text != wantErr.Text {
					t.Fatalf("CheckLineBytes(%q) err = %v %q %q, CheckLine %v %q %q", s,
						gotErr.Kind, gotErr.Reason, gotErr.Text, wantErr.Kind, wantErr.Reason, wantErr.Text)
				}
				continue
			}
			if !wantSkip {
				scanRecordsEqual(t, s, got, scanFromRecord(want))
			}
		}

		rec, err := ParseRecord(s, time.UTC)
		if err != nil {
			return
		}
		a := NewAssembler()
		if err := a.Add(rec); err != nil {
			t.Fatalf("assembler rejected parsed record from %q: %v", s, err)
		}
		if a.Len() != 1 {
			t.Fatalf("assembler has %d jobs after one record", a.Len())
		}
	})
}

// FuzzParseWalltime checks the HH:MM:SS parser never panics and round-trips,
// and that the byte parser accepts exactly what it accepts, with the same
// value.
func FuzzParseWalltime(f *testing.F) {
	for _, seed := range []string{"00:00:00", "48:00:05", "1:2", "aa:bb:cc", "-1:00:00", ""} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseWalltime(s)
		if got, ok := parseWalltimeBytes([]byte(s)); ok != (err == nil) || got != d {
			t.Fatalf("parseWalltimeBytes(%q) = (%v, %v), ParseWalltime (%v, %v)", s, got, ok, d, err)
		}
		if err != nil {
			return
		}
		back, err := ParseWalltime(FormatWalltime(d))
		if err != nil || back != d {
			t.Fatalf("round trip %q -> %v -> (%v, %v)", s, d, back, err)
		}
	})
}

// FuzzParseAccounting pins the accounting block parser ingestion runs to the
// reference scan on arbitrary archives: identical assembled jobs, identical
// malformed-line accounting, identical strict-mode failure.
func FuzzParseAccounting(f *testing.F) {
	for _, seed := range mutateSeeds(cleanAccounting(12)) {
		f.Add(seed)
	}
	f.Add([]byte("04/03/2013 12:00:00;E;9.bw;garbage\n\n;;;\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzInputCap {
			return
		}
		want, wantStats, err := refScan(string(data), time.UTC, 1, parse.Lenient)
		if err != nil {
			t.Fatalf("lenient reference scan failed: %v", err)
		}
		ref, asm := NewAssembler(), NewAssembler()
		for _, rec := range want {
			if err := ref.Add(rec); err != nil {
				t.Fatalf("reference assembler: %v", err)
			}
		}
		recs, stats, err := ScanBlockMode(data, time.UTC, 1, parse.Lenient)
		if err != nil {
			t.Fatalf("lenient block failed: %v", err)
		}
		if len(recs) != len(want) {
			t.Fatalf("block parsed %d records, reference %d", len(recs), len(want))
		}
		for _, rec := range recs {
			if err := asm.AddScan(rec); err != nil {
				t.Fatalf("block assembler: %v", err)
			}
		}
		if got, want := asm.Jobs(), ref.Jobs(); !reflect.DeepEqual(got, want) {
			t.Fatalf("assembled jobs diverge:\n block     %+v\n reference %+v", got, want)
		}
		if stats != wantStats {
			t.Fatalf("stats diverge:\n block     %+v\n reference %+v", stats, wantStats)
		}

		_, _, blockErr := ScanBlockMode(data, time.UTC, 1, parse.Strict)
		_, _, refErr := refScan(string(data), time.UTC, 1, parse.Strict)
		if (blockErr == nil) != (refErr == nil) || (refErr != nil && blockErr.Error() != refErr.Error()) {
			t.Fatalf("strict errors diverge:\n block     %v\n reference %v", blockErr, refErr)
		}
		if blockErr == nil && stats.Malformed() != 0 {
			t.Fatalf("strict passed but lenient counted %d malformed", stats.Malformed())
		}
	})
}
