package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"logdiver/internal/alps"
	"logdiver/internal/coalesce"
	"logdiver/internal/machine"
	"logdiver/internal/parse"
	"logdiver/internal/wlm"
)

// splitChunks cuts s into n chunks on line boundaries, roughly equal sized.
// Every chunk ends with a newline except possibly the last.
func splitChunks(s string, n int) [][]byte {
	lines := strings.SplitAfter(s, "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	chunks := make([][]byte, 0, n)
	per := (len(lines) + n - 1) / n
	for lo := 0; lo < len(lines); lo += per {
		hi := lo + per
		if hi > len(lines) {
			hi = len(lines)
		}
		chunks = append(chunks, []byte(strings.Join(lines[lo:hi], "")))
	}
	for len(chunks) < n {
		chunks = append(chunks, nil)
	}
	return chunks
}

// testArchiveText serializes the shared test dataset to raw text.
func testArchiveText(t *testing.T) (acc, aps, sys string) {
	t.Helper()
	ds := testDataset(t)
	var a, p, s strings.Builder
	if err := ds.WriteAccounting(&a); err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteApsys(&p); err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteErrorLog(&s); err != nil {
		t.Fatal(err)
	}
	return a.String(), p.String(), s.String()
}

// assembledJobs is the job table a fresh wlm.Assembler builds from the
// accounting archive acc, read through ingest under opts.
func assembledJobs(t *testing.T, acc []byte, top *machine.Topology, opts Options) []wlm.Job {
	t.Helper()
	asm := wlm.NewAssembler()
	_, _, _, err := ingest(Archives{Accounting: deltaReader(acc)}, nil, top, opts.withDefaults(), asm.AddScan, alps.NewAssembler())
	if err != nil {
		t.Fatal(err)
	}
	return asm.Jobs()
}

// requireJobTable fails unless the pipeline's job table (what its State
// saves) holds exactly the jobs a fresh assembler builds from acc, the
// accounting bytes appended so far, compared by job ID.
func requireJobTable(t *testing.T, what string, inc *Incremental, acc []byte) {
	t.Helper()
	st, err := inc.State()
	if err != nil {
		t.Fatalf("%s: state: %v", what, err)
	}
	byID := func(jobs []wlm.Job) map[string]wlm.Job {
		m := make(map[string]wlm.Job, len(jobs))
		for _, j := range jobs {
			m[j.ID] = j
		}
		return m
	}
	got, want := byID(st.Jobs), byID(assembledJobs(t, acc, inc.top, inc.opts))
	if len(got) != len(st.Jobs) {
		t.Fatalf("%s: the job table holds %d jobs under %d IDs", what, len(st.Jobs), len(got))
	}
	for id, w := range want {
		if g, ok := got[id]; !ok || g != w {
			t.Fatalf("%s: job %s is %+v (held %v), a fresh assembler has %+v", what, id, g, ok, w)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: the job table holds %d jobs, a fresh assembler %d", what, len(got), len(want))
	}
}

// TestIncrementalMatchesAnalyze is the acceptance differential: after every
// append round, the incremental Result must equal — field for field,
// including ParseStats provenance, coalescing and every attribution — a
// from-scratch Analyze over the concatenated prefix.
func TestIncrementalMatchesAnalyze(t *testing.T) {
	acc, aps, sys := testArchiveText(t)
	ds := testDataset(t)
	const rounds = 4
	accC, apsC, sysC := splitChunks(acc, rounds), splitChunks(aps, rounds), splitChunks(sys, rounds)

	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			opts := Options{Parallelism: par}
			inc, err := NewIncremental(ds.Topology, time.UTC, opts)
			if err != nil {
				t.Fatal(err)
			}
			var accPfx, apsPfx, sysPfx strings.Builder
			var totalRedo int
			for r := 0; r < rounds; r++ {
				// Every round drives all three archive readers at once (the
				// concurrency -race certifies).
				if len(accC[r]) == 0 || len(apsC[r]) == 0 || len(sysC[r]) == 0 {
					t.Fatalf("round %d: empty delta field", r)
				}
				accPfx.Write(accC[r])
				apsPfx.Write(apsC[r])
				sysPfx.Write(sysC[r])
				if _, err := inc.Append(Delta{Accounting: accC[r], Apsys: apsC[r], Syslog: sysC[r]}); err != nil {
					t.Fatalf("round %d: append: %v", r, err)
				}
				got, err := inc.Result()
				if err != nil {
					t.Fatalf("round %d: result: %v", r, err)
				}
				totalRedo += inc.Reattributed()
				want, err := Analyze(Archives{
					Accounting: strings.NewReader(accPfx.String()),
					Apsys:      strings.NewReader(apsPfx.String()),
					Syslog:     strings.NewReader(sysPfx.String()),
				}, ds.Topology, opts)
				if err != nil {
					t.Fatalf("round %d: analyze: %v", r, err)
				}
				if got.Parse != want.Parse {
					t.Fatalf("round %d: ParseStats diverged:\n got %+v\nwant %+v", r, got.Parse, want.Parse)
				}
				if !reflect.DeepEqual(got, want) {
					diffResult(t, r, got, want)
				}
				requireJobTable(t, fmt.Sprintf("round %d", r), inc, []byte(accPfx.String()))
			}
			// Windowed re-attribution must actually skip settled history:
			// across all rounds it attributes fewer run-attributions than the
			// from-scratch quadratic total would.
			var fromScratch int
			for r := 1; r <= rounds; r++ {
				fromScratch += len(inc.attr) * r / rounds
			}
			if totalRedo >= fromScratch {
				t.Errorf("re-attributed %d runs across rounds, want < %d (no incremental win)", totalRedo, fromScratch)
			}
		})
	}
}

// diffResult reports which Result field diverged, for debuggable failures.
func diffResult(t *testing.T, round int, got, want *Result) {
	t.Helper()
	if got.NumJobs != want.NumJobs {
		t.Fatalf("round %d: NumJobs %d vs %d", round, got.NumJobs, want.NumJobs)
	}
	if !reflect.DeepEqual(got.Events, want.Events) {
		t.Fatalf("round %d: Events diverged (%d vs %d)", round, len(got.Events), len(want.Events))
	}
	if got.RawEvents != want.RawEvents {
		t.Fatalf("round %d: RawEvents %d vs %d", round, got.RawEvents, want.RawEvents)
	}
	if len(got.Runs) != len(want.Runs) {
		t.Fatalf("round %d: run counts %d vs %d", round, len(got.Runs), len(want.Runs))
	}
	for i := range got.Runs {
		if !reflect.DeepEqual(got.Runs[i], want.Runs[i]) {
			t.Fatalf("round %d: run %d diverged:\n got %+v\nwant %+v", round, i, got.Runs[i], want.Runs[i])
		}
	}
	t.Fatalf("round %d: Results diverged outside NumJobs/Events/Runs", round)
}

// TestIncrementalSingleShot: one append of everything equals Analyze — the
// degenerate case with no carried-over attributions.
func TestIncrementalSingleShot(t *testing.T) {
	acc, aps, sys := testArchiveText(t)
	ds := testDataset(t)
	inc, err := NewIncremental(ds.Topology, time.UTC, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := inc.Append(Delta{Accounting: []byte(acc), Apsys: []byte(aps), Syslog: []byte(sys)})
	if err != nil {
		t.Fatal(err)
	}
	if st.Events == 0 || st.RunsCompleted == 0 {
		t.Fatalf("append stats empty: %+v", st)
	}
	got, err := inc.Result()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Analyze(archivesFor(t, ds), ds.Topology, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		diffResult(t, 0, got, want)
	}
	// A second Result without new data must re-attribute nothing and still
	// return the same answer.
	again, err := inc.Result()
	if err != nil {
		t.Fatal(err)
	}
	if inc.Reattributed() != 0 {
		t.Errorf("idle Result re-attributed %d runs, want 0", inc.Reattributed())
	}
	if !reflect.DeepEqual(again, want) {
		t.Error("idle Result diverged")
	}
}

// TestResultEventsAreDeduplicated pins what coalesce.Pipeline's callers
// assume when they hand it Result.Events: Analyze and every round's
// Incremental.Result hold the events already deduplicated and in Dedup's
// order, so Dedup over them is the identity.
func TestResultEventsAreDeduplicated(t *testing.T) {
	acc, aps, sys := testArchiveText(t)
	ds := testDataset(t)
	check := func(label string, res *Result) {
		t.Helper()
		if got := coalesce.Dedup(res.Events); !reflect.DeepEqual(got, res.Events) {
			t.Errorf("%s: Dedup(Result.Events) changed %d events into %d", label, len(res.Events), len(got))
		}
	}
	res, err := Analyze(archivesFor(t, ds), ds.Topology, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RawEvents <= len(res.Events) {
		t.Fatalf("fixture has no duplicate events (%d raw, %d kept)", res.RawEvents, len(res.Events))
	}
	check("Analyze", res)

	inc, err := NewIncremental(ds.Topology, time.UTC, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 3
	accC, apsC, sysC := splitChunks(acc, rounds), splitChunks(aps, rounds), splitChunks(sys, rounds)
	for r := 0; r < rounds; r++ {
		if _, err := inc.Append(Delta{Accounting: accC[r], Apsys: apsC[r], Syslog: sysC[r]}); err != nil {
			t.Fatal(err)
		}
		res, err := inc.Result()
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("Incremental.Result round %d", r), res)
	}
}

// TestIncrementalEmptyDelta: appending nothing is a no-op.
func TestIncrementalEmptyDelta(t *testing.T) {
	ds := testDataset(t)
	inc, err := NewIncremental(ds.Topology, time.UTC, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !(Delta{}).Empty() {
		t.Error("zero Delta not Empty")
	}
	if _, err := inc.Append(Delta{}); err != nil {
		t.Fatal(err)
	}
	res, err := inc.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 0 || len(res.Events) != 0 {
		t.Error("empty delta produced data")
	}
}

// TestIncrementalStrictLineProvenance: a strict-mode failure in a later
// append reports the absolute archive line number, and poisons the
// pipeline for every later call.
func TestIncrementalStrictLineProvenance(t *testing.T) {
	_, aps, _ := testArchiveText(t)
	ds := testDataset(t)
	chunks := splitChunks(aps, 2)
	inc, err := NewIncremental(ds.Topology, time.UTC, Options{ParseMode: parse.Strict})
	if err != nil {
		t.Fatal(err)
	}
	st, err := inc.Append(Delta{Apsys: chunks[0]})
	if err != nil {
		t.Fatalf("clean chunk rejected: %v", err)
	}
	// splitChunks ends every chunk but the last with a newline.
	if n := strings.Count(string(chunks[0]), "\n"); st.ApsysLines != n {
		t.Fatalf("append read %d apsys lines, the chunk holds %d", st.ApsysLines, n)
	}
	bad := append([]byte("this is not a syslog line\n"), chunks[1]...)
	_, err = inc.Append(Delta{Apsys: bad})
	if err == nil {
		t.Fatal("strict mode accepted garbage")
	}
	var pe *parse.Error
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a *parse.Error", err)
	}
	wantLine := st.ApsysLines + 1
	if pe.Line != wantLine {
		t.Errorf("error line %d, want absolute line %d", pe.Line, wantLine)
	}
	if pe.Archive != ArchiveApsys {
		t.Errorf("error archive %q, want %q", pe.Archive, ArchiveApsys)
	}
	if _, err2 := inc.Append(Delta{}); !errors.Is(err2, err) && err2 == nil {
		t.Error("poisoned pipeline accepted another append")
	}
	if _, err2 := inc.Result(); err2 == nil {
		t.Error("poisoned pipeline produced a result")
	}
	if inc.Err() == nil {
		t.Error("Err() nil after poisoning")
	}
}

// TestIncrementalStrictArchivePrecedence: a strict-mode delta corrupt in two
// archives reports the accounting failure — the fixed archive order, however
// the concurrent readers finish — with its absolute line number after a
// previous append: the very error a from-scratch Analyze over the
// concatenated input returns.
func TestIncrementalStrictArchivePrecedence(t *testing.T) {
	acc, _, sys := testArchiveText(t)
	ds := testDataset(t)
	accC, sysC := splitChunks(acc, 2), splitChunks(sys, 2)
	opts := Options{ParseMode: parse.Strict, Parallelism: 2}
	inc, err := NewIncremental(ds.Topology, time.UTC, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Append(Delta{Accounting: accC[0]}); err != nil {
		t.Fatalf("clean chunk rejected: %v", err)
	}
	// The syslog corruption comes first in its archive, the accounting one
	// last, so the syslog reader fails first in wall-clock terms too.
	badAcc := append(append([]byte(nil), accC[1]...), "not an accounting record\n"...)
	badSys := append([]byte("not a syslog line\n"), sysC[1]...)
	_, err = inc.Append(Delta{Accounting: badAcc, Syslog: badSys})
	var pe *parse.Error
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a *parse.Error", err)
	}
	// Both accounting chunks end with a newline: the bad record is the last line.
	if wantLine := strings.Count(string(accC[0])+string(badAcc), "\n"); pe.Archive != ArchiveAccounting || pe.Line != wantLine {
		t.Errorf("error at %s line %d, want %s line %d", pe.Archive, pe.Line, ArchiveAccounting, wantLine)
	}
	_, want := Analyze(Archives{
		Accounting: strings.NewReader(string(accC[0]) + string(badAcc)),
		Syslog:     strings.NewReader(string(badSys)),
	}, ds.Topology, opts)
	if want == nil || err.Error() != want.Error() {
		t.Errorf("append error diverges from Analyze over the concatenated input:\n append  %v\n analyze %v", err, want)
	}
	if inc.Err() == nil {
		t.Error("Err() nil after poisoning")
	}
}

// TestIncrementalLateJobRecord: an accounting record arriving after its
// run completed flips the run to a walltime kill — the dirty-job path.
func TestIncrementalLateJobRecord(t *testing.T) {
	acc, aps, sys := testArchiveText(t)
	ds := testDataset(t)
	inc, err := NewIncremental(ds.Topology, time.UTC, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Round 1: runs and events only, no accounting.
	if _, err := inc.Append(Delta{Apsys: []byte(aps), Syslog: []byte(sys)}); err != nil {
		t.Fatal(err)
	}
	r1, err := inc.Result()
	if err != nil {
		t.Fatal(err)
	}
	// Round 2: the accounting archive lands late.
	if _, err := inc.Append(Delta{Accounting: []byte(acc)}); err != nil {
		t.Fatal(err)
	}
	r2, err := inc.Result()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Analyze(archivesFor(t, ds), ds.Topology, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r2, want) {
		diffResult(t, 2, r2, want)
	}
	// The late accounting must have changed something (walltime kills only
	// exist with job records), proving dirty-job re-attribution fired.
	var flipped bool
	for i := range r1.Runs {
		if r1.Runs[i].Outcome != r2.Runs[i].Outcome {
			flipped = true
			break
		}
	}
	if !flipped {
		t.Error("late accounting changed no attribution; dirty-job path untested")
	}
}
