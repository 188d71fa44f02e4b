package gen

import (
	"math/rand"
	"testing"
	"time"

	"logdiver/internal/machine"
)

// backfillConfig builds a saturated workload where capability jobs
// regularly block the queue head, so the scheduling discipline matters:
// under strict FIFO the machine idles while draining for the 900-node
// head; under backfill the backlog keeps it busy.
func backfillConfig(backfill bool, seed int64) Config {
	cfg := testConfig(4)
	cfg.Seed = seed
	cfg.Workload.Backfill = backfill
	cfg.Workload.JobsPerDay = 1500 // oversubscribed: queue never empties
	cfg.Workload.XECapabilityJobsPerDay = 6
	cfg.Workload.XECapabilitySizes = []int{900}
	return cfg
}

func totalNodeHours(ds *Dataset) float64 {
	var nh float64
	for _, r := range ds.Runs {
		nh += float64(r.Placement.Len()) * r.Duration().Hours()
	}
	return nh
}

// newMicroSim builds a bare simulator over the small machine for direct
// scheduler-discipline tests.
func newMicroSim(t *testing.T, backfill bool) *sim {
	t.Helper()
	cfg := testConfig(1)
	cfg.Workload.Backfill = backfill
	top, err := machine.New(cfg.Machine)
	if err != nil {
		t.Fatal(err)
	}
	return &sim{
		cfg:   cfg,
		top:   top,
		rng:   rand.New(rand.NewSource(1)),
		bg:    &faults{nodeFatal: map[machine.NodeID][]fatal{}},
		xe:    newAllocator(top.XENodes()),
		xk:    newAllocator(top.XKNodes()),
		truth: make(map[uint64]Truth),
		end:   cfg.Start.Add(24 * time.Hour),
	}
}

func microJob(size int, queuedAt time.Time) plannedJob {
	return plannedJob{
		class:    machine.ClassXE,
		size:     size,
		runs:     []time.Duration{30 * time.Minute},
		user:     "u",
		account:  "a",
		queue:    "normal",
		walltime: 2 * time.Hour,
		queuedAt: queuedAt,
		cmd:      cmdProfiles[0],
	}
}

// TestBackfillJumpsBlockedHead pins the discipline semantics directly:
// with the head blocked on a near-full machine, FIFO holds every later
// job while backfill starts the ones that fit.
func TestBackfillJumpsBlockedHead(t *testing.T) {
	now := testConfig(1).Start
	for _, backfill := range []bool{false, true} {
		s := newMicroSim(t, backfill)
		// Occupy most of the XE pool so the 900-node head cannot fit.
		busy := s.xe.alloc(s.xe.cap - 400)
		if busy == nil {
			t.Fatal("setup alloc failed")
		}
		queue := []plannedJob{microJob(900, now), microJob(100, now)}
		left := s.tryStartQueue(queue, s.xe, now)
		if backfill {
			if len(left) != 1 || left[0].size != 900 {
				t.Errorf("backfill: queue = %d jobs (head size %d), want the blocked 900 head only",
					len(left), left[0].size)
			}
		} else {
			if len(left) != 2 {
				t.Errorf("FIFO: queue = %d jobs, want both held behind the blocked head", len(left))
			}
		}
	}
}

// TestBackfillStarvationGuard: once the head has waited past the limit,
// backfill suspends and the machine drains for it.
func TestBackfillStarvationGuard(t *testing.T) {
	now := testConfig(1).Start
	s := newMicroSim(t, true)
	s.cfg.Workload.BackfillHeadWaitLimit = time.Hour
	busy := s.xe.alloc(s.xe.cap - 400)
	if busy == nil {
		t.Fatal("setup alloc failed")
	}
	// Head queued 2h ago: beyond the 1h limit.
	queue := []plannedJob{microJob(900, now.Add(-2*time.Hour)), microJob(100, now)}
	left := s.tryStartQueue(queue, s.xe, now)
	if len(left) != 2 {
		t.Errorf("queue = %d jobs; the starvation guard must stop backfill", len(left))
	}
}

func TestBackfillDoesNotStarveCapabilityJobs(t *testing.T) {
	ds, err := Generate(backfillConfig(true, 77))
	if err != nil {
		t.Fatal(err)
	}
	var fullScale int
	for _, r := range ds.Runs {
		if r.Placement.Len() == 900 {
			fullScale++
		}
	}
	if fullScale == 0 {
		t.Error("no full-scale capability runs executed under backfill (starvation)")
	}
}

func TestBackfillPreservesPlacementExclusivity(t *testing.T) {
	ds, err := Generate(backfillConfig(true, 77))
	if err != nil {
		t.Fatal(err)
	}
	busyUntil := make(map[machine.NodeID]int64)
	for _, r := range ds.Runs { // sorted by start
		for _, n := range r.Placement.Nodes() {
			if until, ok := busyUntil[n]; ok && r.Start.UnixNano() < until {
				t.Fatalf("node %d double-booked under backfill", n)
			}
			busyUntil[n] = r.End.UnixNano()
		}
	}
}
