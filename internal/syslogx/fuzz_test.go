package syslogx

import (
	"strings"
	"testing"
	"time"

	"logdiver/internal/mutate"
)

// cleanArchive renders n well-formed lines from host with tag and msg, one
// second apart.
func cleanArchive(n int, host, tag, msg string) []byte {
	var b strings.Builder
	base := time.Date(2013, 4, 3, 12, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		b.WriteString(Format(Line{Time: base.Add(time.Duration(i) * time.Second), Host: host, Tag: tag, Message: msg}))
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// mutatedLines corrupts a clean archive once per operator (oversize
// excepted: a megabyte per line) and returns the distinct lines of the clean
// archive and of every variant, in first-seen order.
func mutatedLines(clean []byte) []string {
	seeds := [][]byte{clean}
	for i, op := range mutate.AllOps() {
		if op == mutate.OpOversize {
			continue
		}
		out, m := mutate.Apply(clean, mutate.Config{Seed: int64(i + 1), Ops: []mutate.Op{op}, MaxPerOp: 2})
		if len(m.Mutations) > 0 {
			seeds = append(seeds, out)
		}
	}
	var lines []string
	seen := make(map[string]bool)
	for _, s := range seeds {
		for _, line := range strings.Split(string(s), "\n") {
			if !seen[line] {
				seen[line] = true
				lines = append(lines, line)
			}
		}
	}
	return lines
}

// FuzzParse pins the syslog line parser ingestion runs to the string
// reference on arbitrary lines: CheckLineBytes must skip, reject (same kind,
// reason and text) or accept (identical fields) exactly as CheckLine does.
// Lines Parse accepts must also round-trip through Format.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"2013-04-03T12:34:56.123456-05:00 c1-3c2s7n1 kernel: message",
		"2013-04-03T00:00:00.000000Z smw xtevent: HSS alert",
		"2013-04-03T00:00:00.000000Z sdb apsys:",
		"garbage", "", "2013-04-03T00:00:00.000000Z", "a b c: d: e",
	} {
		f.Add(seed)
	}
	// The lines the syslog and apsys archive fuzzers in internal/core start
	// from.
	for _, clean := range [][]byte{
		cleanArchive(12, "c0-0c0s0n1", "kernel", "machine check exception"),
		cleanArchive(12, "nid00005", "apsys", "apid=100, Starting, user=alice, batch_id=9.bw, cmd=a.out, width=16, num_nodes=1, node_list=5"),
	} {
		for _, line := range mutatedLines(clean) {
			f.Add(line)
		}
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, wantSkip, wantErr := CheckLine(s)
		view, gotSkip, gotErr := CheckLineBytes([]byte(s))
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
		} else if got := lineOf(view); !wantSkip && (!got.Time.Equal(want.Time) ||
			got.Host != want.Host || got.Tag != want.Tag || got.Message != want.Message) {
			t.Fatalf("CheckLineBytes(%q) = %+v, CheckLine %+v", s, got, want)
		}

		l, err := Parse(s)
		if err != nil {
			return
		}
		back, err := Parse(Format(l))
		if err != nil {
			t.Fatalf("accepted %q but reformatted line failed: %v", s, err)
		}
		if !back.Time.Equal(l.Time) || back.Host != l.Host || back.Tag != l.Tag || back.Message != l.Message {
			t.Fatalf("round trip mismatch for %q: %+v vs %+v", s, back, l)
		}
	})
}
