package alps

import (
	"reflect"
	"testing"
	"time"
)

// fastDiffBodies covers the apsys body surface the byte parser must match:
// both record kinds, chatter without an apid, last-wins duplicate keys,
// quoted-ish commands, and every error class from TestParseMessageErrors.
var fastDiffBodies = []string{
	"apid=456789, Starting, user=alice, batch_id=1.bw, cmd=vasp, width=16, num_nodes=2, node_list=0-1",
	"apid=456789, Finishing, exit_code=0, signal=0, node_cnt=2",
	"apid=1, Finishing, exit_code=139, signal=11, node_cnt=5",
	"apid=7, Starting, user=bob, batch_id=9.bw, cmd=./a.out --flag, width=4, num_nodes=4, node_list=100-102,200",
	"apid=8, Starting, user=x, user=y, batch_id=j, cmd=c, width=1, num_nodes=1, node_list=3", // last wins
	"apsys: error: exit processing timeout, forcing cleanup",                                 // chatter, no apid
	"apid=9, Recap, something=else",                                                          // unknown marker
	"apid=abc, Finishing, exit_code=0, signal=0, node_cnt=1",
	"apid=1, Starting, user=u, batch_id=j, cmd=c, width=x, num_nodes=1, node_list=0",
	"apid=1, Starting, user=u, batch_id=j, cmd=c, width=4, num_nodes=2, node_list=0",
	"apid=1, Starting, user=u, batch_id=j, cmd=c, width=4, num_nodes=1, node_list=zz",
	"apid=1, Finishing, exit_code=0, signal=0",
	"=v, apid=1",
	"apid=1, Finishing, exit_code=0, signal=0, node_cnt=-1",
	"",
	",, ,",
	// The bodies of internal/core's apsys block tables.
	"apid=101, Starting, user=bob, batch_id=10.bw, cmd=b.out, width=64, num_nodes=3, node_list=7-8,12",
	"apid=bad, Starting",
	"apid=102, Starting, user=c, batch_id=1.bw, cmd=c, width=1, num_nodes=2, node_list=5",
	"apid=103, Finishing, exit_code=x, signal=0, node_cnt=1",
	"=v, Starting",
	"some chatter without an apid",
}

// viewToMessage converts a MessageView to the map-parser's Message type for
// field-by-field comparison.
func viewToMessage(v MessageView) Message {
	return Message{
		Kind:     v.Kind,
		ApID:     v.ApID,
		User:     string(v.User),
		JobID:    string(v.JobID),
		Cmd:      string(v.Cmd),
		Width:    v.Width,
		Nodes:    v.Placement.Nodes(),
		ExitCode: v.ExitCode,
		Signal:   v.Signal,
		NodeCnt:  v.NodeCnt,
	}
}

// TestParseMessageBytesMatchesParseMessage pins the byte parser to the
// string reference body by body: same acceptance, same error kind and
// text, and identical parsed fields.
func TestParseMessageBytesMatchesParseMessage(t *testing.T) {
	for _, body := range fastDiffBodies {
		want, wantErr := ParseMessage(body)
		view, gotErr := ParseMessageBytes([]byte(body))
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("ParseMessageBytes(%q) err = %v, string path %v", body, gotErr, wantErr)
			continue
		}
		if wantErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Errorf("ParseMessageBytes(%q) err = %q, string path %q", body, gotErr.Error(), wantErr.Error())
			}
			continue
		}
		got := viewToMessage(view)
		if len(got.Nodes) == 0 && len(want.Nodes) == 0 {
			got.Nodes, want.Nodes = nil, nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ParseMessageBytes(%q) = %+v, want %+v", body, got, want)
		}
	}
}

// TestParseNIDListBytesMatchesParseNIDList pins the byte NID-list parser to
// the string one, including error text.
func TestParseNIDListBytesMatchesParseNIDList(t *testing.T) {
	lists := []string{
		"0", "0-3", "0-3,7,9-11", "100-102,200", " 1 , 2 ", "3-1", "x", "1-", "-1", "", ",",
		"1,1,1", "0-70000", "18446744073709551615",
		"2147483647", "2147483646-2147483647", "2147483648", "7000000000", "5-2147483648",
	}
	for _, s := range lists {
		want, wantErr := ParseNIDList(s)
		got, gotErr := ParseNIDListBytes([]byte(s))
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("ParseNIDListBytes(%q) err = %v, string path %v", s, gotErr, wantErr)
			continue
		}
		if wantErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Errorf("ParseNIDListBytes(%q) err = %q, string path %q", s, gotErr.Error(), wantErr.Error())
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ParseNIDListBytes(%q) = %v, want %v", s, got, want)
		}
	}
}

// TestAddViewMatchesAdd feeds the same message stream through the
// view-based and string-based assembler entry points and requires
// identical completed runs, unmatched counts and open state.
func TestAddViewMatchesAdd(t *testing.T) {
	at := time.Date(2013, 4, 3, 12, 0, 0, 0, time.UTC)
	viaAdd := NewAssembler()
	viaView := NewAssembler()
	viaAdd.SetLenient(true)
	viaView.SetLenient(true)
	for i, body := range fastDiffBodies {
		stamp := at.Add(time.Duration(i) * time.Second)
		m, err := ParseMessage(body)
		if err == nil {
			if err := viaAdd.Add(stamp, m); err != nil {
				t.Fatal(err)
			}
		}
		v, verr := ParseMessageBytes([]byte(body))
		if (verr == nil) != (err == nil) {
			t.Fatalf("acceptance drift on %q", body)
		}
		if verr == nil {
			if err := viaView.AddView(stamp, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if a, b := viaAdd.Done(), viaView.Done(); !reflect.DeepEqual(a, b) {
		t.Errorf("Add runs = %+v\nAddView runs = %+v", a, b)
	}
	if a, b := viaAdd.Open(), viaView.Open(); a != b {
		t.Errorf("open count: Add %d, AddView %d", a, b)
	}
}

// TestParseMessageBytesZeroAllocFinishing gates the steady-state line path:
// a Finishing record (no node list to build), apsys chatter without an apid
// and a record with an unknown marker and an empty segment must parse and
// fold into a lenient assembler without allocating, and so must a repeated
// Starting, which the assembler counts and drops.
func TestParseMessageBytesZeroAllocFinishing(t *testing.T) {
	at := time.Date(2013, 4, 3, 12, 0, 0, 0, time.UTC)
	asm := NewAssembler()
	asm.SetLenient(true)
	start, _ := ParseMessageBytes([]byte("apid=7, Starting, user=u, batch_id=j, cmd=c, width=1, num_nodes=1, node_list=3"))
	if n := testing.AllocsPerRun(200, func() { // the warm-up call opens the run
		if asm.AddView(at, start) != nil || asm.intern(nil) != "" || asm.intern(start.User) != "u" {
			t.Fatal("repeated Starting rejected")
		}
	}); n != 0 {
		t.Errorf("a repeated Starting allocates %.1f allocs/op, want 0", n)
	}
	for _, body := range []string{
		"apid=456789, Finishing, exit_code=0, signal=0, node_cnt=2",
		"apsys: error: exit processing timeout, forcing cleanup",
		"apid=9, Recap, , something=else",
	} {
		b := []byte(body)
		if n := testing.AllocsPerRun(200, func() {
			v, perr := ParseMessageBytes(b)
			if perr != nil || asm.AddView(at, v) != nil {
				t.Fatalf("well-formed body %q rejected", body)
			}
		}); n != 0 {
			t.Errorf("ParseMessageBytes+AddView(%q) allocates %.1f allocs/op, want 0", body, n)
		}
	}
}
