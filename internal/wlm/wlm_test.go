package wlm

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"logdiver/internal/parse"
)

func sampleJob() FullJob {
	return FullJob{
		Job: Job{
			ID:           "123456.bw",
			Walltime:     4 * time.Hour,
			UsedWalltime: 2*time.Hour + 30*time.Minute,
		},
		User:       "alice",
		Account:    "geo_sim",
		Queue:      "normal",
		CreatedAt:  time.Date(2013, 4, 3, 10, 0, 0, 0, time.UTC),
		StartedAt:  time.Date(2013, 4, 3, 12, 0, 0, 0, time.UTC),
		EndedAt:    time.Date(2013, 4, 3, 14, 30, 0, 0, time.UTC),
		Nodes:      128,
		ExitStatus: 0,
	}
}

func TestFormatParseRecordRoundTrip(t *testing.T) {
	rec := EndRecord(sampleJob())
	wire := FormatRecord(rec)
	got, err := ParseRecord(wire, time.UTC)
	if err != nil {
		t.Fatalf("ParseRecord(%q): %v", wire, err)
	}
	if !got.Time.Equal(rec.Time) || got.Type != rec.Type || got.JobID != rec.JobID {
		t.Errorf("header round trip: got %+v, want %+v", got, rec)
	}
	for k, v := range rec.Fields {
		if got.Fields[k] != v {
			t.Errorf("field %q = %q, want %q", k, got.Fields[k], v)
		}
	}
}

func TestFormatRecordDeterministic(t *testing.T) {
	rec := EndRecord(sampleJob())
	a := FormatRecord(rec)
	b := FormatRecord(rec)
	if a != b {
		t.Errorf("FormatRecord not deterministic:\n%s\n%s", a, b)
	}
}

func TestParseRecordErrors(t *testing.T) {
	bad := []string{
		"",
		"04/03/2013 12:00:00;E;123.bw", // missing field section
		"not a time;E;123.bw;user=x",
		"04/03/2013 12:00:00;Z;123.bw;user=x", // bad type
		"04/03/2013 12:00:00;E;;user=x",       // empty job id
		"04/03/2013 12:00:00;E;123.bw;garbagefield",
	}
	for _, s := range bad {
		if _, err := ParseRecord(s, time.UTC); err == nil {
			t.Errorf("ParseRecord(%q) succeeded, want error", s)
		}
	}
}

func TestEventTypeValid(t *testing.T) {
	for _, typ := range []EventType{EventQueue, EventStart, EventEnd, EventAbort, EventDelete} {
		if !typ.Valid() {
			t.Errorf("%c should be valid", typ)
		}
	}
	if EventType('Z').Valid() {
		t.Error("Z should be invalid")
	}
}

func TestWalltimeRoundTrip(t *testing.T) {
	tests := []struct {
		d    time.Duration
		want string
	}{
		{0, "00:00:00"},
		{time.Second, "00:00:01"},
		{90 * time.Minute, "01:30:00"},
		{48*time.Hour + 5*time.Second, "48:00:05"},
		{-time.Hour, "00:00:00"}, // clamped
	}
	for _, tt := range tests {
		got := FormatWalltime(tt.d)
		if got != tt.want {
			t.Errorf("FormatWalltime(%v) = %q, want %q", tt.d, got, tt.want)
		}
		back, err := ParseWalltime(got)
		if err != nil {
			t.Fatalf("ParseWalltime(%q): %v", got, err)
		}
		wantBack := tt.d
		if wantBack < 0 {
			wantBack = 0
		}
		if back != wantBack {
			t.Errorf("round trip %v -> %q -> %v", tt.d, got, back)
		}
	}
}

func TestParseWalltimeErrors(t *testing.T) {
	for _, s := range []string{"", "1:2", "aa:00:00", "00:99:00", "00:00:61", "-1:00:00"} {
		if _, err := ParseWalltime(s); err == nil {
			t.Errorf("ParseWalltime(%q) succeeded, want error", s)
		}
	}
}

func TestWalltimePropertyRoundTrip(t *testing.T) {
	f := func(secs uint32) bool {
		d := time.Duration(secs%((1000*3600)+1)) * time.Second
		back, err := ParseWalltime(FormatWalltime(d))
		return err == nil && back == d
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestAssemblerFullLifecycle: a job's Q, S and E records fold into one job
// holding its ID and both walltimes, the used one from the E record.
func TestAssemblerFullLifecycle(t *testing.T) {
	j := sampleJob()
	a := NewAssembler()
	for _, rec := range []Record{QueueRecord(j), StartRecord(j), EndRecord(j)} {
		if err := a.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	if a.Len() != 1 {
		t.Fatalf("Len = %d, want 1", a.Len())
	}
	if got := a.Jobs()[0]; got != j.Job {
		t.Errorf("assembled job %+v, want %+v", got, j.Job)
	}
}

// TestAssemblerAbort: an A record names its job but carries no walltime, so
// it leaves the job as the S record left it, and the E record after it
// still sets the used walltime.
func TestAssemblerAbort(t *testing.T) {
	j := sampleJob()
	j.ExitStatus = -11 // node failure convention
	a := NewAssembler()
	if err := a.Add(StartRecord(j)); err != nil {
		t.Fatal(err)
	}
	abort := Record{Time: j.EndedAt, Type: EventAbort, JobID: j.ID, Fields: nil}
	if err := a.Add(abort); err != nil {
		t.Fatal(err)
	}
	if got := a.Jobs()[0]; got != (Job{ID: j.ID, Walltime: j.Walltime}) {
		t.Errorf("after S and A records: %+v", got)
	}
	if err := a.Add(EndRecord(j)); err != nil {
		t.Fatal(err)
	}
	if got := a.Jobs()[0]; got != j.Job {
		t.Errorf("after the E record: %+v, want %+v", got, j.Job)
	}
}

func TestAssemblerRejectsEmptyJobID(t *testing.T) {
	a := NewAssembler()
	if err := a.Add(Record{Type: EventQueue}); err == nil {
		t.Error("Add with empty job id succeeded")
	}
}

// TestAssemblerKeepsFirstSeenOrder: Jobs lists the jobs in the order their
// first record arrived, whatever their start times and IDs, and a later
// record for a held job updates it in place.
func TestAssemblerKeepsFirstSeenOrder(t *testing.T) {
	a := NewAssembler()
	base := time.Date(2013, 4, 3, 0, 0, 0, 0, time.UTC)
	ids := []string{"30.bw", "10.bw", "20.bw"}
	for i, id := range ids {
		j := sampleJob()
		j.ID = id
		j.StartedAt = base.Add(time.Duration(len(ids)-i) * time.Hour)
		if err := a.Add(StartRecord(j)); err != nil {
			t.Fatal(err)
		}
	}
	j := sampleJob()
	j.ID = ids[1]
	if err := a.Add(EndRecord(j)); err != nil {
		t.Fatal(err)
	}
	jobs := a.Jobs()
	if len(jobs) != len(ids) {
		t.Fatalf("%d jobs, want %d", len(jobs), len(ids))
	}
	for i, id := range ids {
		if jobs[i].ID != id {
			t.Errorf("job %d is %s, want %s (first-seen order)", i, jobs[i].ID, id)
		}
	}
	if jobs[1].UsedWalltime != j.UsedWalltime {
		t.Error("the E record of a held job did not update it")
	}
}

// TestWriterScannerRoundTrip: records rendered by FormatRecord, one per
// line, scan back through ScanBlockMode with their job IDs and walltimes.
func TestWriterScannerRoundTrip(t *testing.T) {
	var buf strings.Builder
	const n = 50
	for i := 0; i < n; i++ {
		j := sampleJob()
		j.ID = strings.Repeat("1", 1+i%3) + ".bw"
		j.StartedAt = j.StartedAt.Add(time.Duration(i) * time.Minute)
		buf.WriteString(FormatRecord(EndRecord(j)) + "\n")
	}
	recs, stats, err := ScanBlockMode([]byte(buf.String()), time.UTC, 1, parse.Strict)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Errorf("scanned %d, want %d", len(recs), n)
	}
	for i, r := range recs {
		want := sampleJob()
		if string(r.JobID) != strings.Repeat("1", 1+i%3)+".bw" || r.Has != HasWalltime|HasUsedWalltime ||
			r.Walltime != want.Walltime || r.UsedWalltime != want.UsedWalltime {
			t.Errorf("record %d scanned as %s %v %v (%b)", i, r.JobID, r.Walltime, r.UsedWalltime, r.Has)
		}
	}
	if stats.Malformed() != 0 {
		t.Errorf("Malformed = %d", stats.Malformed())
	}
}

// TestScannerSkipsNoise: lenient scanning skips malformed lines and counts
// them; blank lines are skipped without counting.
func TestScannerSkipsNoise(t *testing.T) {
	good := FormatRecord(EndRecord(sampleJob()))
	input := "junk\n" + good + "\n\nmore junk\n" + good + "\n"
	recs, stats, err := ScanBlockMode([]byte(input), time.UTC, 1, parse.Lenient)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || stats.Malformed() != 2 {
		t.Errorf("got %d records, %d malformed; want 2, 2", len(recs), stats.Malformed())
	}
}

// TestEndRecordSignalConvention: the E record of a job killed by a signal
// renders its exit status as 256 plus the signal number.
func TestEndRecordSignalConvention(t *testing.T) {
	j := sampleJob()
	j.ExitStatus = 256 + 9 // killed by SIGKILL
	got, err := ParseRecord(FormatRecord(EndRecord(j)), time.UTC)
	if err != nil {
		t.Fatal(err)
	}
	if st := got.Fields["Exit_status"]; st != "265" {
		t.Errorf("Exit_status = %q, want 265", st)
	}
}

// TestAssemblerJobLookup: Job returns the current record of one job — what
// Jobs would list for it — and reports a job no record named as absent.
func TestAssemblerJobLookup(t *testing.T) {
	a := NewAssembler()
	j := sampleJob()
	if err := a.Add(StartRecord(j)); err != nil {
		t.Fatal(err)
	}
	got, ok := a.Job(j.ID)
	if !ok || got != a.Jobs()[0] {
		t.Errorf("Job(%q) = %+v, %v; want %+v", j.ID, got, ok, a.Jobs()[0])
	}
	if err := a.Add(EndRecord(j)); err != nil {
		t.Fatal(err)
	}
	if got, _ := a.Job(j.ID); got != a.Jobs()[0] || got.UsedWalltime == 0 {
		t.Errorf("Job after the E record = %+v, want the updated %+v", got, a.Jobs()[0])
	}
	if _, ok := a.Job("nope.bw"); ok {
		t.Error("Job found a job no record named")
	}
}

// TestRestoreAssembler: a restored assembler holds a copy of the saved
// table in the saved order, finds its jobs by ID and folds later records
// into them; a table that repeats a job ID or holds an empty one is refused.
func TestRestoreAssembler(t *testing.T) {
	saved := []Job{sampleJob().Job, sampleJob().Job}
	saved[0].ID, saved[1].ID = "20.bw", "10.bw"
	a, err := RestoreAssembler(saved)
	if err != nil {
		t.Fatal(err)
	}
	end := sampleJob()
	end.ID, end.UsedWalltime = "10.bw", time.Hour
	if err := a.Add(EndRecord(end)); err != nil {
		t.Fatal(err)
	}
	if got, ok := a.Job("10.bw"); !ok || got.UsedWalltime != time.Hour || a.Len() != 2 || a.Jobs()[0].ID != "20.bw" {
		t.Errorf("restored assembler: job %+v (found %v), %d jobs, first %s", got, ok, a.Len(), a.Jobs()[0].ID)
	}
	if saved[1].UsedWalltime == time.Hour {
		t.Error("a record folded into the restored assembler wrote the saved table")
	}
	for name, jobs := range map[string][]Job{
		"repeated ID": {saved[0], saved[0]},
		"empty ID":    {saved[0], {}},
	} {
		if _, err := RestoreAssembler(jobs); err == nil {
			t.Errorf("%s: restored", name)
		}
	}
}

// TestJobSize: a job is what attribution reads — an ID and two walltimes —
// so the job table and every saved job record cost 32 bytes a job.
func TestJobSize(t *testing.T) {
	if n := unsafe.Sizeof(Job{}); n > 32 {
		t.Errorf("Job is %d bytes, want at most 32", n)
	}
}
