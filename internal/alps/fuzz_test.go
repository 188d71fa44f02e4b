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

// FuzzParseNIDList pins the range parser ingestion runs to the string
// reference: the same acceptance and error text, ranges that expand to
// exactly the reference's IDs and are canonical (ascending, adjacent parts
// coalesced), and ranges that StartMessage's writer renders as FormatNIDList
// renders the list and that parse back to themselves.
func FuzzParseNIDList(f *testing.F) {
	for _, seed := range []string{
		"", "5", "1-3", "1-3,4", "1,2,3", "1-3,7,9-10", "0-0", "3-1", "x", "1,,2", "2,1", "1-3,3",
		"2147483646,2147483647", "9999999-0",
	} {
		f.Add(seed)
	}
	for _, line := range append(apsysSeedLines(), fastDiffBodies...) {
		if _, list, ok := strings.Cut(line, "node_list="); ok {
			list, _, _ = strings.Cut(list, ", ")
			f.Add(list)
		}
	}
	f.Fuzz(func(t *testing.T, s string) {
		ids, err := ParseNIDList(s)
		p, gotErr := ParseNIDRangesBytes([]byte(s))
		if (gotErr == nil) != (err == nil) || (err != nil && gotErr.Error() != err.Error()) {
			t.Fatalf("ParseNIDRangesBytes(%q) err = %v, ParseNIDList %v", s, gotErr, err)
		}
		if err != nil {
			return
		}
		if got := p.Nodes(); p.Len() != len(ids) || len(ids) > 0 && !reflect.DeepEqual(got, ids) {
			t.Fatalf("ParseNIDRangesBytes(%q) = %v, expands to %v; ParseNIDList %v", s, p, got, ids)
		}
		for k, r := range p {
			if r.Lo > r.Hi || k > 0 && int(r.Lo) <= int(p[k-1].Hi)+1 {
				t.Fatalf("ParseNIDRangesBytes(%q) = %v: range %d not canonical", s, p, k)
			}
		}
		var b strings.Builder
		writeNIDList(&b, p)
		if want := FormatNIDList(ids); b.String() != want {
			t.Fatalf("ranges of %q render as %q, FormatNIDList %q", s, b.String(), want)
		}
		back, err := ParseNIDRangesBytes([]byte(b.String()))
		if err != nil || !reflect.DeepEqual(back, p) {
			t.Fatalf("ranges of %q rendered as %q parse back to %v, %v", s, b.String(), back, err)
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
