package alps

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"logdiver/internal/machine"
)

func ids(ns ...int) []machine.NodeID {
	out := make([]machine.NodeID, len(ns))
	for i, n := range ns {
		out[i] = machine.NodeID(n)
	}
	return out
}

func TestFormatNIDList(t *testing.T) {
	tests := []struct {
		give []machine.NodeID
		want string
	}{
		{nil, ""},
		{ids(5), "5"},
		{ids(1, 2, 3), "1-3"},
		{ids(3, 1, 2), "1-3"},
		{ids(1, 2, 3, 7, 9, 10), "1-3,7,9-10"},
		{ids(4, 4, 4), "4"},
		{ids(0, 1, 5, 5, 6), "0-1,5-6"},
	}
	for _, tt := range tests {
		if got := FormatNIDList(tt.give); got != tt.want {
			t.Errorf("FormatNIDList(%v) = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestParseNIDList(t *testing.T) {
	got, err := ParseNIDList("1-3,7,9-10")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ids(1, 2, 3, 7, 9, 10)) {
		t.Errorf("got %v", got)
	}
	if got, err := ParseNIDList(""); err != nil || got != nil {
		t.Errorf("ParseNIDList(\"\") = %v, %v", got, err)
	}
}

func TestParseNIDListErrors(t *testing.T) {
	bad := []string{"x", "3-1", "1,,2", "-5", "1-", "2,1", "1,1", "0-99999999", "2147483648", "0-2147483648"}
	for _, s := range bad {
		if _, err := ParseNIDList(s); err == nil {
			t.Errorf("ParseNIDList(%q) succeeded, want error", s)
		}
	}
}

func TestNIDListPropertyRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		in := make([]machine.NodeID, len(raw))
		for i, v := range raw {
			in[i] = machine.NodeID(v % 5000)
		}
		out, err := ParseNIDList(FormatNIDList(in))
		if err != nil {
			return false
		}
		// The round trip sorts and dedups; compare as sets.
		seen := make(map[machine.NodeID]bool, len(in))
		for _, id := range in {
			seen[id] = true
		}
		if len(out) != len(seen) {
			return false
		}
		for _, id := range out {
			if !seen[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func sampleRun() AppRun {
	return AppRun{
		ApID:      456789,
		JobID:     "123456.bw",
		User:      "alice",
		Cmd:       "vasp",
		Width:     2048,
		Placement: machine.PlacementOf(ids(100, 101, 102, 103, 200)),
		Start:     time.Date(2013, 4, 3, 12, 0, 0, 0, time.UTC),
		End:       time.Date(2013, 4, 3, 14, 0, 0, 0, time.UTC),
		ExitCode:  0,
		Signal:    0,
	}
}

func TestStartMessageRoundTrip(t *testing.T) {
	r := sampleRun()
	m, err := ParseMessage(StartMessage(r))
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != KindStarting {
		t.Fatalf("Kind = %v, want Starting", m.Kind)
	}
	if m.ApID != r.ApID || m.User != r.User || m.JobID != r.JobID || m.Cmd != r.Cmd || m.Width != r.Width {
		t.Errorf("header: got %+v", m)
	}
	if !reflect.DeepEqual(m.Nodes, r.Placement.Nodes()) {
		t.Errorf("Nodes = %v, want %v", m.Nodes, r.Placement)
	}
}

func TestExitMessageRoundTrip(t *testing.T) {
	r := sampleRun()
	r.ExitCode = 139
	r.Signal = 11
	m, err := ParseMessage(ExitMessage(r))
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != KindFinishing {
		t.Fatalf("Kind = %v, want Finishing", m.Kind)
	}
	if m.ApID != r.ApID || m.ExitCode != 139 || m.Signal != 11 || m.NodeCnt != r.Placement.Len() {
		t.Errorf("got %+v", m)
	}
}

func TestParseMessageChatter(t *testing.T) {
	// apsys error chatter must parse to KindUnknown without error.
	m, err := ParseMessage("apsys: error: exit processing timeout, forcing cleanup")
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != KindUnknown {
		t.Errorf("Kind = %v, want Unknown", m.Kind)
	}
}

func TestParseMessageErrors(t *testing.T) {
	bad := []string{
		"apid=abc, Finishing, exit_code=0, signal=0, node_cnt=1",
		"apid=1, Starting, user=u, batch_id=j, cmd=c, width=x, num_nodes=1, node_list=0",
		"apid=1, Starting, user=u, batch_id=j, cmd=c, width=4, num_nodes=2, node_list=0",  // count mismatch
		"apid=1, Starting, user=u, batch_id=j, cmd=c, width=4, num_nodes=1, node_list=zz", // bad list
		"apid=1, Finishing, exit_code=0, signal=0",                                        // missing node_cnt
		"=v, apid=1", // empty key
	}
	for _, s := range bad {
		if _, err := ParseMessage(s); err == nil {
			t.Errorf("ParseMessage(%q) succeeded, want error", s)
		}
	}
}

func TestRunDerivedQuantities(t *testing.T) {
	r := sampleRun()
	if got := r.Duration(); got != 2*time.Hour {
		t.Errorf("Duration = %v", got)
	}
	if r.Failed() {
		t.Error("clean exit marked failed")
	}
	r.Signal = 9
	if !r.Failed() {
		t.Error("signal exit not marked failed")
	}
	r.Signal = 0
	r.ExitCode = 1
	if !r.Failed() {
		t.Error("nonzero exit not marked failed")
	}
}

func TestAssemblerPairsRuns(t *testing.T) {
	a := NewAssembler()
	r := sampleRun()
	start, err := ParseMessage(StartMessage(r))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Add(r.Start, start); err != nil {
		t.Fatal(err)
	}
	if a.Open() != 1 {
		t.Fatalf("Open = %d, want 1", a.Open())
	}
	exit, err := ParseMessage(ExitMessage(r))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Add(r.End, exit); err != nil {
		t.Fatal(err)
	}
	runs := a.Runs()
	if len(runs) != 1 {
		t.Fatalf("Runs = %d, want 1", len(runs))
	}
	got := runs[0]
	if got.ApID != r.ApID || !got.Start.Equal(r.Start) || !got.End.Equal(r.End) {
		t.Errorf("got %+v, want %+v", got, r)
	}
	if !reflect.DeepEqual(got.Placement, r.Placement) || got.Placement.Len() != 5 {
		t.Errorf("Placement = %v (%d nodes)", got.Placement, got.Placement.Len())
	}
	if a.Open() != 0 {
		t.Errorf("Open = %d after pairing", a.Open())
	}
}

func TestAssemblerDuplicateStart(t *testing.T) {
	a := NewAssembler()
	r := sampleRun()
	start, _ := ParseMessage(StartMessage(r))
	if err := a.Add(r.Start, start); err != nil {
		t.Fatal(err)
	}
	if err := a.Add(r.Start, start); err == nil {
		t.Error("duplicate Starting accepted")
	}
}

func TestAssemblerUnmatchedFinish(t *testing.T) {
	a := NewAssembler()
	r := sampleRun()
	exit, _ := ParseMessage(ExitMessage(r))
	if err := a.Add(r.End, exit); err != nil {
		t.Fatal(err)
	}
	if a.Unmatched() != 1 {
		t.Errorf("Unmatched = %d, want 1", a.Unmatched())
	}
	if len(a.Runs()) != 0 {
		t.Error("unmatched finish produced a run")
	}
}

func TestAssemblerChatterIgnored(t *testing.T) {
	a := NewAssembler()
	m, err := ParseMessage("error: placement request failed")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Add(time.Now(), m); err != nil {
		t.Fatal(err)
	}
	if a.Open() != 0 || len(a.Runs()) != 0 {
		t.Error("chatter affected assembler state")
	}
}

func TestAssemblerSortsRuns(t *testing.T) {
	a := NewAssembler()
	base := time.Date(2013, 4, 3, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(1))
	const n = 20
	for i := 0; i < n; i++ {
		r := sampleRun()
		r.ApID = uint64(1000 + rng.Intn(100000))
		r.Start = base.Add(time.Duration(rng.Intn(1000)) * time.Second)
		r.End = r.Start.Add(time.Hour)
		start, _ := ParseMessage(StartMessage(r))
		if err := a.Add(r.Start, start); err != nil {
			continue // random apid collision: skip
		}
		exit, _ := ParseMessage(ExitMessage(r))
		if err := a.Add(r.End, exit); err != nil {
			t.Fatal(err)
		}
	}
	runs := a.Runs()
	for i := 1; i < len(runs); i++ {
		if runs[i-1].Start.After(runs[i].Start) {
			t.Fatal("runs not sorted by start")
		}
	}
}

// TestRunsOrderIsTotal: runs that tie on start and apid — an echoed
// Starting/Finishing pair in a corrupted archive — come out in completion
// order, and ByStart says so.
func TestRunsOrderIsTotal(t *testing.T) {
	a := NewAssembler()
	base := time.Date(2013, 4, 3, 0, 0, 0, 0, time.UTC)
	add := func(apid uint64, start time.Time, exit int) {
		t.Helper()
		r := sampleRun()
		r.ApID, r.Start, r.ExitCode = apid, start, exit
		s, _ := ParseMessage(StartMessage(r))
		if err := a.Add(start, s); err != nil {
			t.Fatal(err)
		}
		e, _ := ParseMessage(ExitMessage(r))
		if err := a.Add(start.Add(time.Hour), e); err != nil {
			t.Fatal(err)
		}
	}
	const echoes = 30 // more than an unstable sort's insertion-sort cutoff
	for i := 0; i < echoes; i++ {
		add(7, base.Add(time.Minute), i)
		add(uint64(100+i), base.Add(time.Duration(i%3)*time.Minute), 0)
	}
	var exits []int
	for _, r := range a.Runs() {
		if r.ApID == 7 {
			exits = append(exits, r.ExitCode)
		}
	}
	if len(exits) != echoes || !slices.IsSorted(exits) {
		t.Errorf("echoed runs in order %v, want completion order 0..%d", exits, echoes-1)
	}
	cmp := ByStart(a.Done())
	if cmp(0, 2) >= 0 || cmp(2, 0) <= 0 || cmp(4, 4) != 0 {
		t.Errorf("ByStart does not order two echoes of one run by completion index")
	}
}
