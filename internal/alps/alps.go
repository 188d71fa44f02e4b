// Package alps models the ALPS (Application Level Placement Scheduler)
// application log: the apsys records that mark every aprun-launched
// application's placement and exit. These are the records that define an
// "application run" in the study — the unit whose resiliency is measured.
// Each run appears as a pair of syslog messages with the apsys tag:
//
//	apid=456789, Starting, user=alice, batch_id=123456.bw, cmd=vasp, width=2048, num_nodes=64, node_list=100-163
//	apid=456789, Finishing, exit_code=0, signal=0, node_cnt=64
//
// The package provides formatting and parsing of both message bodies and an
// Assembler that pairs them into AppRun records.
package alps

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"logdiver/internal/machine"
)

// Tag is the syslog program tag under which apsys logs application events.
const Tag = "apsys"

// ArchiveFile is the apsys archive's name inside an archive directory.
const ArchiveFile = "apsys.log"

// AppRun is one aprun-launched application execution: the study's unit of
// analysis.
type AppRun struct {
	// ApID is the ALPS application ID, unique machine-wide.
	ApID uint64
	// JobID is the batch job (Torque) the run belongs to.
	JobID string
	// User is the submitting user.
	User string
	// Cmd is the executable name.
	Cmd string
	// Width is the number of processing elements (PEs, i.e. ranks).
	Width int
	// Placement is the set of nodes the run was placed on.
	Placement machine.Placement
	// Start and End bound the execution.
	Start, End time.Time
	// ExitCode is the application exit code (0 on success); meaningless
	// when Signal != 0.
	ExitCode int
	// Signal is the fatal signal number, 0 if none.
	Signal int
}

// Duration returns the run's wall-clock duration.
func (r *AppRun) Duration() time.Duration { return r.End.Sub(r.Start) }

// Failed reports whether the run terminated abnormally (nonzero exit code
// or fatal signal).
func (r *AppRun) Failed() bool { return r.ExitCode != 0 || r.Signal != 0 }

// StartMessage renders the apsys "Starting" message body for r.
func StartMessage(r AppRun) string {
	var b strings.Builder
	b.Grow(96 + len(r.Placement)*12)
	b.WriteString("apid=")
	b.WriteString(strconv.FormatUint(r.ApID, 10))
	b.WriteString(", Starting, user=")
	b.WriteString(r.User)
	b.WriteString(", batch_id=")
	b.WriteString(r.JobID)
	b.WriteString(", cmd=")
	b.WriteString(r.Cmd)
	b.WriteString(", width=")
	b.WriteString(strconv.Itoa(r.Width))
	b.WriteString(", num_nodes=")
	b.WriteString(strconv.Itoa(r.Placement.Len()))
	b.WriteString(", node_list=")
	writeNIDList(&b, r.Placement)
	return b.String()
}

// ExitMessage renders the apsys "Finishing" message body for r.
func ExitMessage(r AppRun) string {
	return fmt.Sprintf("apid=%d, Finishing, exit_code=%d, signal=%d, node_cnt=%d",
		r.ApID, r.ExitCode, r.Signal, r.Placement.Len())
}

// MessageKind discriminates the two apsys record kinds.
type MessageKind int

// Message kinds.
const (
	KindUnknown MessageKind = iota
	KindStarting
	KindFinishing
)

// Assembler pairs Starting/Finishing messages into AppRun records.
type Assembler struct {
	open       map[uint64]AppRun
	done       []AppRun
	unmatched  int
	duplicates int
	clamped    int
	lenient    bool
	// interned canonicalizes the short repeated per-run strings (user, job
	// ID, command) so the byte-view fast path copies each distinct value out
	// of its input buffer at most once.
	interned map[string]string
}

// NewAssembler returns an empty assembler in strict duplicate handling:
// a second Starting for an open apid is an error.
func NewAssembler() *Assembler {
	return &Assembler{open: make(map[uint64]AppRun), interned: make(map[string]string)}
}

// SetLenient selects the degraded-record policy: when on, a second
// Starting record for an apid that is already open is counted (see
// Duplicates) and skipped — the first record wins — and a Finishing
// stamped before its Starting is clamped to a zero-duration run (see
// ClampedEnds) instead of failing the assembly. Corrupted archives
// duplicate writer buffers and skew clocks; lenient ingestion must
// tolerate both.
func (a *Assembler) SetLenient(on bool) { a.lenient = on }

// finish closes the open run for apid.
func (a *Assembler) finish(at time.Time, apid uint64, exitCode, signal int) error {
	run, ok := a.open[apid]
	if !ok {
		a.unmatched++
		return nil // exit without a start: archive truncation, tolerated
	}
	if at.Before(run.Start) {
		// A Finishing stamped before its Starting (clock skew, torn
		// buffers) would give the run a negative duration and poison
		// every downstream duration statistic.
		if !a.lenient {
			return fmt.Errorf("alps: apid %d Finishing at %s precedes Starting at %s",
				apid, at.Format(time.RFC3339), run.Start.Format(time.RFC3339))
		}
		a.clamped++
		at = run.Start
	}
	delete(a.open, apid)
	run.End = at
	run.ExitCode = exitCode
	run.Signal = signal
	a.done = append(a.done, run)
	return nil
}

// ByStart returns the comparator of the output order of runs over completion
// indices into done: (Start, ApID, completion index). The index makes the
// order total — a corrupted archive can echo a Starting/Finishing pair, so
// two runs may share start and apid — which is what lets the incremental
// pipeline merge a sorted batch into a sorted carry and land on exactly the
// order a from-scratch sort gives.
func ByStart(done []AppRun) func(i, j int) int {
	return func(i, j int) int {
		a, b := &done[i], &done[j]
		if c := a.Start.Compare(b.Start); c != 0 {
			return c
		}
		if c := cmp.Compare(a.ApID, b.ApID); c != 0 {
			return c
		}
		return cmp.Compare(i, j)
	}
}

// StartOrder returns the completion indices from, from+1, ... of done in
// ByStart order: all runs for from 0, otherwise the sorted batch of the runs
// completed since there were from of them.
func StartOrder(done []AppRun, from int) []int {
	order := make([]int, len(done)-from)
	for k := range order {
		order[k] = from + k
	}
	slices.SortFunc(order, ByStart(done))
	return order
}

// Runs returns completed runs in output order (see ByStart). Runs still
// open (no Finishing seen) are not included; see Open.
func (a *Assembler) Runs() []AppRun {
	out := make([]AppRun, len(a.done))
	for k, i := range StartOrder(a.done, 0) {
		out[k] = a.done[i]
	}
	return out
}

// Done returns the completed runs in completion (archive) order, without
// sorting. The slice is append-only across Add calls: incremental ingestion
// relies on Done()[n:] being exactly the runs completed since it last
// observed n completed runs. The caller must not mutate the returned slice.
func (a *Assembler) Done() []AppRun { return a.done }

// Open returns the number of runs with a Starting record but no Finishing
// record (still running at the end of the archive, or lost records).
func (a *Assembler) Open() int { return len(a.open) }

// Unmatched returns the number of Finishing records with no Starting record.
func (a *Assembler) Unmatched() int { return a.unmatched }

// Duplicates returns the number of Starting records skipped because the
// apid was already open (lenient mode only; strict assembly fails instead).
func (a *Assembler) Duplicates() int { return a.duplicates }

// ClampedEnds returns the number of Finishing records whose timestamp
// preceded the paired Starting and was clamped to it, yielding a
// zero-duration run (lenient mode only; strict assembly fails instead).
func (a *Assembler) ClampedEnds() int { return a.clamped }
