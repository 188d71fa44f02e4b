package alps

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"logdiver/internal/mutate"
	"logdiver/internal/parse"
)

// apsysSeedLines corrupts the clean apsys archive the apsys archive fuzzer in
// internal/core starts from once per operator (oversize excepted: a megabyte
// per line) and returns the distinct lines of the clean archive and of every
// variant, in first-seen order.
func apsysSeedLines() []string {
	var b strings.Builder
	base := time.Date(2013, 4, 3, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 12; i++ {
		b.WriteString(base.Add(time.Duration(i)*time.Second).Format("2006-01-02T15:04:05.000000Z07:00") +
			" nid00005 apsys: apid=100, Starting, user=alice, batch_id=9.bw, cmd=a.out, width=16, num_nodes=1, node_list=5\n")
	}
	clean := []byte(b.String())
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

// afterFirst returns what follows the first sep in line, or all of line.
func afterFirst(line, sep string) string {
	if _, rest, ok := strings.Cut(line, sep); ok {
		return rest
	}
	return line
}

// FuzzParseNIDList pins the byte node-list parser ingestion runs to the
// string reference — same acceptance, error text and IDs — and checks that
// accepted lists round-trip through FormatNIDList.
func FuzzParseNIDList(f *testing.F) {
	for _, seed := range []string{
		"", "5", "1-3", "1-3,7,9-10", "0-0", "3-1", "x", "1,,2", "9999999-0",
	} {
		f.Add(seed)
	}
	for _, line := range apsysSeedLines() {
		f.Add(afterFirst(line, "node_list="))
	}
	f.Fuzz(func(t *testing.T, s string) {
		ids, err := ParseNIDList(s)
		got, gotErr := ParseNIDListBytes([]byte(s))
		if (gotErr == nil) != (err == nil) || (err != nil && gotErr.Error() != err.Error()) {
			t.Fatalf("ParseNIDListBytes(%q) err = %v, ParseNIDList %v", s, gotErr, err)
		}
		if !reflect.DeepEqual(got, ids) {
			t.Fatalf("ParseNIDListBytes(%q) = %v, ParseNIDList %v", s, got, ids)
		}
		if err != nil {
			return
		}
		back, err := ParseNIDList(FormatNIDList(ids))
		if err != nil {
			t.Fatalf("accepted %q but reformatted list failed: %v", s, err)
		}
		if len(back) != len(ids) {
			t.Fatalf("round trip length %d != %d for %q", len(back), len(ids), s)
		}
		for i := range ids {
			if back[i] != ids[i] {
				t.Fatalf("round trip element %d: %d != %d for %q", i, back[i], ids[i], s)
			}
		}
	})
}

// FuzzParseMessage pins the byte message parser ingestion runs to the string
// reference — same acceptance, error kind and text, and fields — and checks
// that accepted messages are of a known kind.
func FuzzParseMessage(f *testing.F) {
	for _, seed := range []string{
		"apid=456789, Starting, user=alice, batch_id=1.bw, cmd=vasp, width=16, num_nodes=2, node_list=0-1",
		"apid=456789, Finishing, exit_code=0, signal=0, node_cnt=2",
		"apsys chatter without equals",
		"apid=, Starting", "=bad", "", "apid=1, Starting",
	} {
		f.Add(seed)
	}
	for _, line := range apsysSeedLines() {
		f.Add(afterFirst(line, ": "))
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseMessage(s)
		view, gotErr := ParseMessageBytes([]byte(s))
		if (gotErr == nil) != (err == nil) {
			t.Fatalf("ParseMessageBytes(%q) err = %v, ParseMessage %v", s, gotErr, err)
		}
		if err != nil {
			var perr *parse.Error
			if !errors.As(err, &perr) || gotErr.Kind != perr.Kind || gotErr.Error() != perr.Error() {
				t.Fatalf("ParseMessageBytes(%q) err = %v (%v), ParseMessage %v", s, gotErr, gotErr.Kind, err)
			}
			return
		}
		got := viewToMessage(view)
		if len(got.Nodes) == 0 && len(m.Nodes) == 0 {
			got.Nodes, m.Nodes = nil, nil
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("ParseMessageBytes(%q) = %+v, ParseMessage %+v", s, got, m)
		}
		switch m.Kind {
		case KindStarting:
			if len(m.Nodes) == 0 && m.Width < 0 {
				t.Fatalf("accepted Starting with no placement: %q", s)
			}
		case KindFinishing, KindUnknown:
			// nothing further to check
		default:
			t.Fatalf("impossible kind %d for %q", m.Kind, s)
		}
	})
}
