package core

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"logdiver/internal/correlate"
	"logdiver/internal/machine"
	"logdiver/internal/metrics"
	"logdiver/internal/wlm"
)

// Metamorphic relations over the accounting archive. Of a batch job the
// analysis reads only the two walltimes, so an archive cut down to them
// must analyze the same, and raising one job's requested walltime must flip
// exactly its walltime kills to user failures.

// rewriteAccounting returns acc with edit applied to the k=v tokens of every
// record; edit gets the record's job ID.
func rewriteAccounting(acc string, edit func(id string, tokens []string) []string) string {
	var b strings.Builder
	for _, line := range linesOf(acc) {
		parts := strings.SplitN(strings.TrimSuffix(line, "\n"), ";", 4)
		b.WriteString(strings.Join(parts[:3], ";"))
		b.WriteByte(';')
		b.WriteString(strings.Join(edit(parts[2], strings.Fields(parts[3])), " "))
		b.WriteByte('\n')
	}
	return b.String()
}

// walltimeResults analyzes the archives through Analyze and through an
// Incremental fed uneven rounds, cut at different lines per archive, and
// returns the two Results.
func walltimeResults(t *testing.T, top *machine.Topology, acc, aps, sys string) [2]*Result {
	t.Helper()
	batch, err := Analyze(archivesOf(acc, aps, sys), top, Options{})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewIncremental(top, time.UTC, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 5
	rng := rand.New(rand.NewSource(1))
	var cuts [3][]int
	streams := [3][]string{linesOf(acc), linesOf(aps), linesOf(sys)}
	for i, lines := range streams {
		cuts[i] = []int{0, len(lines)}
		for r := 1; r < rounds; r++ {
			cuts[i] = append(cuts[i], rng.Intn(len(lines)+1))
		}
		sort.Ints(cuts[i])
	}
	var online *Result
	for r := 0; r < rounds; r++ {
		d := Delta{
			Accounting: cutLines(streams[0], cuts[0][r], cuts[0][r+1]),
			Apsys:      cutLines(streams[1], cuts[1][r], cuts[1][r+1]),
			Syslog:     cutLines(streams[2], cuts[2][r], cuts[2][r+1]),
		}
		if _, err := inc.Append(d); err != nil {
			t.Fatal(err)
		}
		if online, err = inc.Result(); err != nil {
			t.Fatal(err)
		}
	}
	return [2]*Result{batch, online}
}

var pipelineNames = [2]string{"Analyze", "Incremental"}

// TestWalltimeOnlyAccountingAnalyzesTheSame: with every accounting record
// cut down to its two walltime fields, each pipeline's Result is the one it
// gives over the full archive. The fixture holds walltime kills, so the
// walltimes do decide outcomes.
func TestWalltimeOnlyAccountingAnalyzesTheSame(t *testing.T) {
	top := testDataset(t).Topology
	acc, aps, sys := testArchiveText(t)
	slim := rewriteAccounting(acc, func(_ string, tokens []string) []string {
		var keep []string
		for _, kv := range tokens {
			if strings.HasPrefix(kv, "Resource_List.walltime=") || strings.HasPrefix(kv, "resources_used.walltime=") {
				keep = append(keep, kv)
			}
		}
		return keep
	})
	if len(slim) >= len(acc)/2 {
		t.Fatalf("fixture: the walltime-only archive is %d of %d bytes, the other fields were not cut", len(slim), len(acc))
	}
	want := walltimeResults(t, top, acc, aps, sys)
	if n := want[0].Agg.Outcomes().Counts[correlate.OutcomeWalltime]; n == 0 {
		t.Fatal("fixture: no walltime kill, so the walltimes decide nothing")
	}
	got := walltimeResults(t, top, slim, aps, sys)
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			diffResult(t, 0, got[i], want[i])
			t.Errorf("%s: the walltime-only archive analyzes differently", pipelineNames[i])
		}
	}
}

// TestRaisedWalltimeFlipsOnlyItsJob raises one job's requested walltime by
// an hour in every record that names it. Exactly that job's walltime kills
// become user failures, and the rest of the Result follows from that. The
// control raises the walltime of a job with a user failure and no walltime
// kill: nothing changes.
func TestRaisedWalltimeFlipsOnlyItsJob(t *testing.T) {
	top := testDataset(t).Topology
	acc, aps, sys := testArchiveText(t)
	base := walltimeResults(t, top, acc, aps, sys)

	kills, users := map[string]int{}, map[string]int{}
	for _, r := range base[0].Runs {
		switch r.Outcome {
		case correlate.OutcomeWalltime:
			kills[r.JobID]++
		case correlate.OutcomeUserFailure:
			users[r.JobID]++
		}
	}
	var killed, control []string
	for id := range kills {
		killed = append(killed, id)
	}
	for id := range users {
		if kills[id] == 0 {
			control = append(control, id)
		}
	}
	if len(killed) == 0 || len(control) == 0 {
		t.Fatalf("fixture: %d jobs with a walltime kill, %d with a user failure and none", len(killed), len(control))
	}
	sort.Strings(killed)
	sort.Strings(control)
	walltime := map[string]time.Duration{}
	for _, j := range assembledJobs(t, []byte(acc), top, Options{}) {
		walltime[j.ID] = j.Walltime
	}
	raise := func(job string) string {
		token := "Resource_List.walltime=" + wlm.FormatWalltime(walltime[job]+time.Hour)
		return rewriteAccounting(acc, func(id string, tokens []string) []string {
			for i, kv := range tokens {
				if id == job && strings.HasPrefix(kv, "Resource_List.walltime=") {
					tokens[i] = token
				}
			}
			return tokens
		})
	}

	for _, tc := range []struct {
		name, job string
		flips     int
	}{
		{"walltime-killed job", killed[0], kills[killed[0]]},
		{"control", control[0], 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			edited := raise(tc.job)
			if edited == acc {
				t.Fatalf("raising job %s's walltime left the archive as it was", tc.job)
			}
			got := walltimeResults(t, top, edited, aps, sys)
			for i, b := range base {
				want := *b
				want.Runs = append([]correlate.AttributedRun(nil), b.Runs...)
				flipped := 0
				for k := range want.Runs {
					if r := &want.Runs[k]; r.JobID == tc.job && r.Outcome == correlate.OutcomeWalltime {
						r.Outcome = correlate.OutcomeUserFailure
						flipped++
					}
				}
				if flipped != tc.flips {
					t.Fatalf("%s: job %s has %d walltime kills, want %d", pipelineNames[i], tc.job, flipped, tc.flips)
				}
				want.Agg = metrics.Fold(want.Runs)
				if !reflect.DeepEqual(got[i], &want) {
					diffResult(t, 0, got[i], &want)
					t.Errorf("%s: raising job %s's walltime changed more than its %d walltime kills", pipelineNames[i], tc.job, tc.flips)
				}
			}
		})
	}
}
