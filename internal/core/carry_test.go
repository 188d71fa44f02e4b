package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"logdiver/internal/correlate"
	"logdiver/internal/machine"
	"logdiver/internal/raceflag"
	"logdiver/internal/syslogx"
	"logdiver/internal/wlm"
)

// TestMergeSorted pins the carry merge against sort-everything on random
// inputs, with and without duplicate dropping: the merged sequence, that the
// carry is never written, and that only a batch sorting after the carry
// extends it in place.
func TestMergeSorted(t *testing.T) {
	// Values order by themselves; two values are duplicates when they agree
	// on value/4, the way events agree on a key that is a prefix of their
	// total order.
	dupKey := func(a, b int) bool { return a/4 == b/4 }
	rng := rand.New(rand.NewSource(3))
	sortedSet := func(n, span int, dedup bool) []int {
		s := make([]int, n)
		for i := range s {
			s[i] = rng.Intn(span)
		}
		slices.Sort(s)
		if dedup {
			return slices.CompactFunc(s, dupKey)
		}
		return slices.Compact(s)
	}
	for round := 0; round < 2000; round++ {
		dedup := round%2 == 0
		var dup func(a, b int) bool
		if dedup {
			dup = dupKey
		}
		span := 1 + rng.Intn(200)
		carry := sortedSet(rng.Intn(30), span, dedup)
		batch := sortedSet(rng.Intn(10), span, dedup)
		if round%5 == 0 { // the common case: the batch sorts after the carry
			for i := range batch {
				batch[i] += (span/4 + 1) * 4 // a multiple of 4 keeps it free of duplicates
			}
		}
		carry = append(make([]int, 0, len(carry)+rng.Intn(8)), carry...) // sometimes spare capacity
		before := slices.Clone(carry)

		if !dedup { // a total order without duplicates: no value is in both
			batch = slices.DeleteFunc(batch, func(b int) bool { _, in := slices.BinarySearch(before, b); return in })
		}
		want := append(slices.Clone(carry), batch...)
		slices.Sort(want)
		if dedup {
			want = slices.CompactFunc(want, dupKey)
		}
		got := mergeSorted(carry, batch, cmp.Compare[int], dup)
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: carry %v + batch %v = %v, want %v", round, before, batch, got, want)
		}
		if !slices.Equal(carry, before) {
			t.Fatalf("round %d: carry written: %v, was %v", round, carry, before)
		}
		extends := len(carry) > 0 && len(got) > 0 && &got[0] == &carry[0]
		after := len(batch) == 0 || len(carry) == 0 || carry[len(carry)-1] < batch[0]
		if extends && !after {
			t.Fatalf("round %d: result aliases the carry although batch %v interleaves with %v", round, batch, before)
		}
	}
}

// apsysText renders apsys records: each entry is a time and a message body.
func apsysText(at time.Time, body string) string {
	return syslogx.Format(syslogx.Line{Time: at, Host: "nid00005", Tag: "apsys", Message: body}) + "\n"
}

func startingBody(apid uint64, node machine.NodeID) string {
	return fmt.Sprintf("apid=%d, Starting, user=alice, batch_id=9.bw, cmd=a.out, width=16, num_nodes=1, node_list=%d", apid, node)
}

func finishingBody(apid uint64, exit int) string {
	return fmt.Sprintf("apid=%d, Finishing, exit_code=%d, signal=0, node_cnt=1", apid, exit)
}

// analyzeText is Analyze over in-memory apsys and syslog text.
func analyzeText(t *testing.T, top *machine.Topology, aps, sys string) *Result {
	t.Helper()
	res, err := Analyze(Archives{Apsys: strings.NewReader(aps), Syslog: strings.NewReader(sys)}, top, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestIncrementalEvidenceHorizon: the event index of a round starts at the
// evidence horizon of the earliest-ending affected run, inclusive. A run whose
// only evidence sits exactly EvidenceWindow before its end, appended a round
// before the run completes, must still be a system failure.
func TestIncrementalEvidenceHorizon(t *testing.T) {
	top := blockTestTopology(t)
	end := time.Date(2013, 4, 3, 13, 0, 0, 0, time.UTC)
	window := correlate.DefaultConfig().EvidenceWindow
	panicLine := func(at time.Time, node machine.NodeID) string {
		return syslogx.Format(syslogx.Line{
			Time: at, Host: top.MustNode(node).Cname.String(), Tag: "kernel",
			Message: "Kernel panic - not syncing: Fatal exception",
		}) + "\n"
	}
	aps1 := apsysText(end.Add(-30*time.Minute), startingBody(100, 5)) +
		apsysText(end.Add(-20*time.Minute), startingBody(101, 6))
	sys1 := panicLine(end.Add(-time.Hour), 7) + // old news on an idle node
		panicLine(end.Add(-window), 5) + // exactly on run 100's horizon
		panicLine(end.Add(9*time.Minute), 6)
	aps2 := apsysText(end.Add(10*time.Minute), finishingBody(101, 1)) + // completes first, ends last
		apsysText(end, finishingBody(100, 1))

	inc, err := NewIncremental(top, time.UTC, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Append(Delta{Apsys: []byte(aps1), Syslog: []byte(sys1)}); err != nil {
		t.Fatal(err)
	}
	if res, err := inc.Result(); err != nil || len(res.Runs) != 0 || len(res.Events) != 3 {
		t.Fatalf("round 1: %d runs, %d events, err %v; want 0, 3, nil", len(res.Runs), len(res.Events), err)
	}
	if _, err := inc.Append(Delta{Apsys: []byte(aps2)}); err != nil {
		t.Fatal(err)
	}
	got, err := inc.Result()
	if err != nil {
		t.Fatal(err)
	}
	want := analyzeText(t, top, aps1+aps2, sys1)
	if len(want.Runs) != 2 || want.Runs[0].ApID != 100 || want.Runs[0].Outcome != correlate.OutcomeSystemFailure ||
		!want.Runs[0].Evidence.Time.Equal(end.Add(-window)) || want.Runs[1].Outcome != correlate.OutcomeSystemFailure {
		t.Fatalf("fixture: batch attribution %+v is not two system failures with run 100's evidence on its horizon", want.Runs)
	}
	if !reflect.DeepEqual(got, want) {
		diffResult(t, 2, got, want)
	}
}

// TestIncrementalEchoedRun: a corrupted archive can echo a Starting/Finishing
// pair, giving two runs with the same apid and the same start. Their order is
// completion order (alps.ByStart), in the batch sort and in the incremental
// merge alike, wherever the rounds are cut.
func TestIncrementalEchoedRun(t *testing.T) {
	top := blockTestTopology(t)
	base := time.Date(2013, 4, 3, 12, 0, 0, 0, time.UTC)
	var lines []string
	const fillers = 40 // enough runs that an unstable sort would not keep ties in place
	for i := 0; i < fillers; i++ {
		lines = append(lines, apsysText(base.Add(time.Duration(i)*time.Second), startingBody(uint64(1+i), machine.NodeID(10+i))))
	}
	echoStart := base.Add(20 * time.Second) // ties with a filler's start: apid breaks that one
	lines = append(lines,
		apsysText(echoStart, startingBody(500, 5)),
		apsysText(base.Add(10*time.Minute), finishingBody(500, 0)),
		apsysText(echoStart, startingBody(500, 5)),
		apsysText(base.Add(20*time.Minute), finishingBody(500, 1)))
	for i := 0; i < fillers; i++ {
		lines = append(lines, apsysText(base.Add(time.Hour+time.Duration(i)*time.Second), finishingBody(uint64(1+i), i%2)))
	}

	all := analyzeText(t, top, strings.Join(lines, ""), "")
	k := slices.IndexFunc(all.Runs, func(r correlate.AttributedRun) bool { return r.ApID == 500 })
	if len(all.Runs) != fillers+2 || all.Parse.DuplicateStarts != 0 || k < 0 || all.Runs[k+1].ApID != 500 ||
		!all.Runs[k].Start.Equal(all.Runs[k+1].Start) {
		t.Fatalf("fixture: %d runs, %d duplicate starts, apid 500 at %d: not an echoed pair", len(all.Runs), all.Parse.DuplicateStarts, k)
	}
	if all.Runs[k].ExitCode != 0 || all.Runs[k+1].ExitCode != 1 {
		t.Errorf("echoed runs in order exit %d, exit %d; want completion order 0, 1", all.Runs[k].ExitCode, all.Runs[k+1].ExitCode)
	}

	for cut := 1; cut < len(lines); cut++ {
		inc, err := NewIncremental(top, time.UTC, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var pfx string
		for round, chunk := range []string{strings.Join(lines[:cut], ""), strings.Join(lines[cut:], "")} {
			pfx += chunk
			if _, err := inc.Append(Delta{Apsys: []byte(chunk)}); err != nil {
				t.Fatal(err)
			}
			got, err := inc.Result()
			if err != nil {
				t.Fatal(err)
			}
			if want := analyzeText(t, top, pfx, ""); !reflect.DeepEqual(got, want) {
				t.Logf("cut after line %d", cut)
				diffResult(t, round, got, want)
			}
		}
	}
}

// TestResultRoundAllocCeiling bounds what an idle round allocates: one copy
// of the runs (the Result's own) and small change. Before the sorted carries
// a round allocated two copies of the runs, every job twice and every event
// three times. The bound is in bytes because the point is the bulk copies,
// not the number of objects.
func TestResultRoundAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("measures a full pipeline fixture")
	}
	if raceflag.Enabled {
		t.Skip("allocation volume is not meaningful under the race detector")
	}
	acc, aps, sys := testArchiveText(t)
	inc, err := NewIncremental(testDataset(t).Topology, time.UTC, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Append(Delta{Accounting: []byte(acc), Apsys: []byte(aps), Syslog: []byte(sys)}); err != nil {
		t.Fatal(err)
	}
	res, err := inc.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) < 1000 || len(res.Events) < len(res.Runs) {
		t.Fatalf("fixture has %d runs and %d events: too small to tell a bulk copy from noise", len(res.Runs), len(res.Events))
	}
	ceiling := uint64(len(res.Runs)) * uint64(unsafe.Sizeof(correlate.AttributedRun{})) * 3 / 2
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	idle, err := inc.Result()
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got > ceiling {
		t.Errorf("idle Result over %d runs, %d jobs, %d events allocated %d bytes, ceiling %d",
			len(idle.Runs), idle.NumJobs, len(idle.Events), got, ceiling)
	}
	if inc.Reattributed() != 0 {
		t.Errorf("idle Result re-attributed %d runs", inc.Reattributed())
	}
}

// lastEndRecord is the last E record of the accounting archive acc, as one
// line: appending it again touches a job the pipeline already holds.
func lastEndRecord(t *testing.T, acc string) []byte {
	t.Helper()
	lines := linesOf(acc)
	for i := len(lines) - 1; i >= 0; i-- {
		if strings.Contains(lines[i], ";E;") {
			return []byte(lines[i])
		}
	}
	t.Fatal("no E record in the accounting archive")
	return nil
}

// TestDirtyJobRoundAllocCeiling bounds a round whose only news is an
// accounting record for a job already held: it re-attributes that job's runs
// and allocates less than an idle Result plus one job table. A round that
// copied or re-sorted the jobs would pass the bound.
func TestDirtyJobRoundAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("measures a full pipeline fixture")
	}
	if raceflag.Enabled {
		t.Skip("allocation volume is not meaningful under the race detector")
	}
	acc, aps, sys := testArchiveText(t)
	inc, err := NewIncremental(testDataset(t).Topology, time.UTC, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Append(Delta{Accounting: []byte(acc), Apsys: []byte(aps), Syslog: []byte(sys)}); err != nil {
		t.Fatal(err)
	}
	res, err := inc.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.NumJobs < 500 {
		t.Fatalf("fixture has %d jobs: too few to tell a copy of the table from noise", res.NumJobs)
	}
	allocated := func() uint64 {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		if _, err := inc.Result(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	idle := allocated()
	if _, err := inc.Append(Delta{Accounting: lastEndRecord(t, acc)}); err != nil {
		t.Fatal(err)
	}
	if inc.wlmAsm.Len() != res.NumJobs {
		t.Fatalf("the re-appended E record added a job: %d, was %d", inc.wlmAsm.Len(), res.NumJobs)
	}
	dirty := allocated()
	ceiling := idle + uint64(res.NumJobs)*uint64(unsafe.Sizeof(wlm.Job{}))
	if dirty >= ceiling {
		t.Errorf("a round with one dirty job over %d jobs allocated %d bytes, an idle one %d; ceiling %d",
			res.NumJobs, dirty, idle, ceiling)
	}
	if inc.Reattributed() == 0 {
		t.Error("the dirty job's round re-attributed no run")
	}
}
