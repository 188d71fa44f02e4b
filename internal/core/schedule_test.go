package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"logdiver/internal/correlate"
	"logdiver/internal/errlog"
	"logdiver/internal/machine"
	"logdiver/internal/metrics"
	"logdiver/internal/mutate"
	"logdiver/internal/raceflag"
)

// The seeded schedule differential. One seed decides how the three archives
// are cut into append rounds; every round's incremental Result must equal a
// from-scratch Analyze over the bytes appended so far, and every Result
// handed out on the way must still equal its twin when the schedule ends (a
// later round that wrote into a backing array an earlier Result shares would
// show there). The schedule always contains the shapes the sorted carries
// have to survive:
//
//   - uneven cut points, different per archive, empty chunks included;
//   - a round split into three rounds of one archive each;
//   - an accounting-only round carrying the S record of a job whose E record
//     (stripped of its start= field) arrived earlier: dirty jobs and no
//     events, and every completed run of the job is attributed again;
//   - a syslog-only round holding the oldest lines of the archive, which
//     sort before every carried event: the merge cannot be an append;
//   - the same lines once more, as a forwarder replays them: every event of
//     the round duplicates a carried one;
//   - a Result called twice with no append in between;
//   - a State → RestoreIncremental hop, after which the carries are rebuilt.

// scheduleStep is one round of a schedule.
type scheduleStep struct {
	note    string
	d       Delta
	idle    bool // call Result a second time without appending
	restore bool // export and restore the pipeline before the append
}

// schedule is what buildSchedule derives from a seed, with the facts the
// driver asserts its preconditions against.
type schedule struct {
	steps   []scheduleStep
	lateJob string // the job whose S record trails its E record
}

// linesOf splits text into lines that keep their newline.
func linesOf(text string) []string {
	lines := strings.SplitAfter(text, "\n")
	if n := len(lines); lines[n-1] == "" {
		lines = lines[:n-1]
	}
	return lines
}

// cutLines returns the text of lines[lo:hi].
func cutLines(lines []string, lo, hi int) []byte {
	return []byte(strings.Join(lines[lo:hi], ""))
}

// buildSchedule cuts the test dataset's archives into rounds. The surgery is
// done on the clean text; with mutated set the three main streams are then
// corrupted (every operator but oversize) before they are cut.
func buildSchedule(t *testing.T, seed int64, mutated bool) schedule {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	acc, aps, sys := testArchiveText(t)
	streams := [3][]string{linesOf(acc), linesOf(aps), linesOf(sys)}

	// The late S record: a job with one S and one E line.
	sLine, eLine := map[string]int{}, map[string]int{}
	for i, l := range streams[0] {
		f := strings.SplitN(l, ";", 4)
		if len(f) != 4 {
			t.Fatalf("accounting line %d has %d fields", i+1, len(f))
		}
		switch f[1] {
		case "S":
			sLine[f[2]] = i
		case "E":
			eLine[f[2]] = i
		}
	}
	// The apsys line that completes each job's first run: a Starting line
	// names the apid's job, its Finishing line only the apid.
	jobOf, fin := map[string]string{}, map[string]int{}
	for i, l := range streams[1] {
		at := strings.Index(l, "apid=")
		if at < 0 {
			continue
		}
		apid, rest, _ := strings.Cut(l[at:], ",")
		switch {
		case strings.HasPrefix(rest, " Starting,"):
			if b := strings.Index(rest, "batch_id="); b >= 0 {
				jobOf[apid], _, _ = strings.Cut(rest[b+len("batch_id="):], ",")
			}
		case strings.HasPrefix(rest, " Finishing,"):
			if job, ok := jobOf[apid]; ok {
				if _, seen := fin[job]; !seen {
					fin[job] = i
				}
			}
		}
	}
	var both []string
	for id, s := range sLine {
		_, ran := fin[id]
		if e, ok := eLine[id]; ok && ran && s < e && strings.Contains(streams[0][e], " start=") {
			both = append(both, id)
		}
	}
	if len(both) == 0 {
		t.Fatal("no job with a completed run, an S and an E record in the test dataset")
	}
	sort.Strings(both)
	sc := schedule{lateJob: both[rng.Intn(len(both))]}
	s, e := sLine[sc.lateJob], eLine[sc.lateJob]
	el := streams[0][e]
	at := strings.Index(el, " start=")
	end := at + 1 + strings.IndexAny(el[at+1:], " \n")
	streams[0][e] = el[:at] + el[end:]
	lateS := []byte(streams[0][s])
	streams[0] = append(streams[0][:s:s], streams[0][s+1:]...)
	e-- // the E line moved up by one

	// The old syslog chunk: the head of the archive.
	nOld := max(1, len(streams[2])/20)
	oldSys := cutLines(streams[2], 0, nOld)
	streams[2] = streams[2][nOld:]

	if mutated {
		var ops []mutate.Op
		for _, op := range mutate.AllOps() {
			if op != mutate.OpOversize {
				ops = append(ops, op)
			}
		}
		for i := range streams {
			out, _ := mutate.Apply([]byte(strings.Join(streams[i], "")), mutate.Config{
				Seed: seed + int64(i), Budget: 0.005, MaxPerOp: 4, Ops: ops,
			})
			if n := len(out); n > 0 && out[n-1] != '\n' {
				out = append(out, '\n') // later rounds append after this stream
			}
			streams[i] = linesOf(string(out))
		}
		e = min(e, len(streams[0])-1) // only the round it decides matters below
	}
	f := min(fin[sc.lateJob], len(streams[1])-1)

	// Uneven cuts, different per archive; equal cut points give empty chunks.
	rounds := 4 + rng.Intn(3)
	var cuts [3][]int
	for i := range streams {
		cuts[i] = []int{0}
		for r := 1; r < rounds; r++ {
			cuts[i] = append(cuts[i], rng.Intn(len(streams[i])+1))
		}
		cuts[i] = append(cuts[i], len(streams[i]))
		sort.Ints(cuts[i])
	}
	// The late S record comes after the rounds holding the E record and the
	// job's first completed run.
	after := max(sort.SearchInts(cuts[0][1:], e+1), sort.SearchInts(cuts[1][1:], f+1))
	split := rng.Intn(rounds) // this round goes one archive at a time
	lateAfter := after + rng.Intn(rounds-after)
	oldAfter := rounds - 1 - rng.Intn(2)
	for r := 0; r < rounds; r++ {
		d := Delta{
			Accounting: cutLines(streams[0], cuts[0][r], cuts[0][r+1]),
			Apsys:      cutLines(streams[1], cuts[1][r], cuts[1][r+1]),
			Syslog:     cutLines(streams[2], cuts[2][r], cuts[2][r+1]),
		}
		if r == split {
			one := []scheduleStep{
				{note: fmt.Sprintf("round %d accounting only", r), d: Delta{Accounting: d.Accounting}},
				{note: fmt.Sprintf("round %d apsys only", r), d: Delta{Apsys: d.Apsys}},
				{note: fmt.Sprintf("round %d syslog only", r), d: Delta{Syslog: d.Syslog}},
			}
			rng.Shuffle(len(one), func(i, j int) { one[i], one[j] = one[j], one[i] })
			sc.steps = append(sc.steps, one...)
		} else {
			sc.steps = append(sc.steps, scheduleStep{note: fmt.Sprintf("round %d", r), d: d})
		}
		if r == lateAfter {
			sc.steps = append(sc.steps, scheduleStep{note: "late S record", d: Delta{Accounting: lateS}})
		}
		if r == oldAfter {
			sc.steps = append(sc.steps,
				scheduleStep{note: "old syslog chunk", d: Delta{Syslog: oldSys}},
				scheduleStep{note: "old syslog chunk replayed", d: Delta{Syslog: oldSys}})
		}
	}
	sc.steps[rng.Intn(len(sc.steps))].idle = true
	sc.steps[1+rng.Intn(len(sc.steps)-1)].restore = true
	return sc
}

// runSchedule drives one schedule and fails t on the first divergence.
func runSchedule(t *testing.T, seed int64, mutated bool, parallelism int) {
	t.Helper()
	sc := buildSchedule(t, seed, mutated)
	top := testDataset(t).Topology
	opts := Options{Parallelism: parallelism}
	inc, err := NewIncremental(top, time.UTC, opts)
	if err != nil {
		t.Fatal(err)
	}
	type twin struct {
		note      string
		got, want *Result
	}
	var (
		kept []twin
		pfx  [3]bytes.Buffer
		prev *Result
	)
	for i, st := range sc.steps {
		if st.restore {
			state, err := inc.State()
			if err != nil {
				t.Fatalf("step %d (%s): state: %v", i, st.note, err)
			}
			if inc, err = RestoreIncremental(top, time.UTC, opts, state); err != nil {
				t.Fatalf("step %d (%s): restore: %v", i, st.note, err)
			}
			requireJobTable(t, fmt.Sprintf("step %d (%s), restored", i, st.note), inc, pfx[0].Bytes())
		}
		pfx[0].Write(st.d.Accounting)
		pfx[1].Write(st.d.Apsys)
		pfx[2].Write(st.d.Syslog)
		if _, err := inc.Append(st.d); err != nil {
			t.Fatalf("step %d (%s): append: %v", i, st.note, err)
		}
		got, err := inc.Result()
		if err != nil {
			t.Fatalf("step %d (%s): result: %v", i, st.note, err)
		}
		redo := inc.Reattributed()
		want, err := Analyze(Archives{
			Accounting: bytes.NewReader(pfx[0].Bytes()),
			Apsys:      bytes.NewReader(pfx[1].Bytes()),
			Syslog:     bytes.NewReader(pfx[2].Bytes()),
		}, top, opts)
		if err != nil {
			t.Fatalf("step %d (%s): analyze: %v", i, st.note, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Logf("seed %d mutated %v parallelism %d, step %d (%s)", seed, mutated, parallelism, i, st.note)
			diffResult(t, i, got, want)
		}
		checkConservation(t, fmt.Sprintf("step %d (%s)", i, st.note), got, top)
		requireJobTable(t, fmt.Sprintf("step %d (%s)", i, st.note), inc, pfx[0].Bytes())
		kept = append(kept, twin{st.note, got, want})
		if st.idle {
			again, err := inc.Result()
			if err != nil {
				t.Fatalf("step %d (%s): idle result: %v", i, st.note, err)
			}
			if n := inc.Reattributed(); n != 0 {
				t.Errorf("step %d (%s): idle Result re-attributed %d runs", i, st.note, n)
			}
			if !reflect.DeepEqual(again, want) {
				diffResult(t, i, again, want)
			}
			checkConservation(t, fmt.Sprintf("step %d (%s), idle", i, st.note), again, top)
			kept = append(kept, twin{st.note + ", idle", again, want})
		}

		// On clean input the two special rounds must have done what they are
		// in the schedule for.
		if !mutated && st.note == "late S record" {
			runs := 0
			for k := range got.Runs {
				if got.Runs[k].JobID == sc.lateJob {
					runs++
				}
			}
			if runs == 0 || redo < runs {
				t.Errorf("step %d: the late S record of job %s re-attributed %d runs; the job has %d completed", i, sc.lateJob, redo, runs)
			}
		}
		if !mutated && st.note == "old syslog chunk" {
			if len(prev.Events) == 0 || !got.Events[0].Time.Before(prev.Events[0].Time) {
				t.Errorf("step %d: the old syslog chunk is not older than every carried event", i)
			}
		}
		if !mutated && st.note == "old syslog chunk replayed" {
			if got.RawEvents <= prev.RawEvents || len(got.Events) != len(prev.Events) {
				t.Errorf("step %d: the replayed chunk took events from %d raw, %d kept to %d raw, %d kept: not all duplicates",
					i, prev.RawEvents, len(prev.Events), got.RawEvents, len(got.Events))
			}
		}
		prev = got
	}
	// A holder that appends to its own Result must not reach another one's.
	for _, k := range kept {
		_ = append(k.got.Events, errlog.Event{Message: "scribble"})
	}
	for i, k := range kept {
		if !reflect.DeepEqual(k.got, k.want) {
			t.Errorf("seed %d mutated %v parallelism %d: Result %d (%s) changed after it was returned", seed, mutated, parallelism, i, k.note)
		}
	}
}

// checkConservation asserts the conservation laws of a Result's carried
// aggregate: it passes its exact-integer Check (outcome counts and node
// times sum to the totals, causes to the system failures, size rows to
// both) and equals a fresh fold of the runs; rendered, the outcome counts
// sum to the runs, the XE and XK scaling buckets over the topology's
// extents sum to the class totals, which together are every run, and the
// category failures sum to the system failures.
func checkConservation(t *testing.T, what string, res *Result, top *machine.Topology) {
	t.Helper()
	if err := res.Agg.Check(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !reflect.DeepEqual(res.Agg, metrics.Fold(res.Runs)) {
		t.Fatalf("%s: carried aggregate differs from a fold of the %d runs", what, len(res.Runs))
	}
	o := res.Agg.Outcomes()
	counted := 0
	for _, n := range o.Counts {
		counted += n
	}
	if o.Total != len(res.Runs) || counted != o.Total {
		t.Fatalf("%s: %d runs, outcome total %d, counts sum to %d", what, len(res.Runs), o.Total, counted)
	}
	classRuns := map[machine.NodeClass]int{}
	for i := range res.Runs {
		classRuns[res.Runs[i].Class]++
	}
	for class, extent := range map[machine.NodeClass]int{machine.ClassXE: top.NumXE(), machine.ClassXK: top.NumXK()} {
		buckets, err := res.Agg.Scaling(metrics.GeometricBuckets(extent), class)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, b := range buckets {
			n += b.Runs
		}
		if n != classRuns[class] {
			t.Fatalf("%s: %v scaling buckets hold %d runs, the class has %d", what, class, n, classRuns[class])
		}
	}
	if classRuns[machine.ClassXE]+classRuns[machine.ClassXK] != len(res.Runs) {
		t.Fatalf("%s: XE %d + XK %d runs of %d", what, classRuns[machine.ClassXE], classRuns[machine.ClassXK], len(res.Runs))
	}
	failures := 0
	for _, c := range res.Agg.Categories() {
		failures += c.Failures
	}
	if failures != o.Counts[correlate.OutcomeSystemFailure] {
		t.Fatalf("%s: categories hold %d failures, %d system failures", what, failures, o.Counts[correlate.OutcomeSystemFailure])
	}
}

// TestIncrementalSchedule runs the schedule differential over a few seeds,
// on clean and on corrupted (lenient) input, at one and at four workers.
func TestIncrementalSchedule(t *testing.T) {
	seeds := int64(4)
	if testing.Short() || raceflag.Enabled {
		seeds = 2 // every schedule is some ten full analyses
	}
	for seed := int64(1); seed <= seeds; seed++ {
		for _, mutated := range []bool{false, true} {
			for _, par := range []int{1, 4} {
				t.Run(fmt.Sprintf("seed=%d/mutated=%v/parallelism=%d", seed, mutated, par), func(t *testing.T) {
					runSchedule(t, seed, mutated, par)
				})
			}
		}
	}
}

// FuzzIncrementalSchedule lets the fuzzer pick the seed of the same driver.
func FuzzIncrementalSchedule(f *testing.F) {
	f.Add(int64(1), false, false)
	f.Add(int64(2), true, true)
	f.Fuzz(func(t *testing.T, seed int64, mutated, wide bool) {
		parallelism := 1
		if wide {
			parallelism = 4
		}
		runSchedule(t, seed, mutated, parallelism)
	})
}
