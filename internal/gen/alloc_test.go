package gen

import (
	"math/rand"
	"testing"
	"testing/quick"

	"logdiver/internal/machine"
)

func seqIDs(lo, n int) []machine.NodeID {
	out := make([]machine.NodeID, n)
	for i := range out {
		out[i] = machine.NodeID(lo + i)
	}
	return out
}

func TestAllocatorBasic(t *testing.T) {
	a := newAllocator(seqIDs(0, 10))
	if a.freeCount() != 10 {
		t.Fatalf("freeCount = %d", a.freeCount())
	}
	got := a.alloc(4)
	if len(got) != 4 || got[0] != 0 || got[3] != 3 {
		t.Fatalf("alloc(4) = %v", got)
	}
	if a.freeCount() != 6 {
		t.Errorf("freeCount = %d after alloc", a.freeCount())
	}
	if err := a.release(got); err != nil {
		t.Fatal(err)
	}
	if a.freeCount() != 10 {
		t.Errorf("freeCount = %d after release", a.freeCount())
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	a := newAllocator(seqIDs(0, 5))
	if got := a.alloc(6); got != nil {
		t.Errorf("oversized alloc returned %v", got)
	}
	if got := a.alloc(0); got != nil {
		t.Errorf("alloc(0) returned %v", got)
	}
	first := a.alloc(5)
	if len(first) != 5 {
		t.Fatal("full alloc failed")
	}
	if got := a.alloc(1); got != nil {
		t.Errorf("alloc on empty pool returned %v", got)
	}
}

func TestAllocatorLowestFirst(t *testing.T) {
	a := newAllocator(seqIDs(100, 10))
	x := a.alloc(3)
	y := a.alloc(3)
	if x[0] != 100 || y[0] != 103 {
		t.Errorf("allocations not lowest-first: %v %v", x, y)
	}
	if err := a.release(x); err != nil {
		t.Fatal(err)
	}
	z := a.alloc(2)
	if z[0] != 100 {
		t.Errorf("freed range not reused first: %v", z)
	}
}

func TestAllocatorNonContiguousPool(t *testing.T) {
	ids := append(seqIDs(0, 4), seqIDs(100, 4)...)
	a := newAllocator(ids)
	got := a.alloc(6)
	if len(got) != 6 {
		t.Fatalf("alloc(6) = %v", got)
	}
	if got[3] != 3 || got[4] != 100 {
		t.Errorf("allocation did not span gap: %v", got)
	}
	if err := a.release(got); err != nil {
		t.Fatal(err)
	}
	if a.freeCount() != 8 {
		t.Errorf("freeCount = %d", a.freeCount())
	}
}

func TestAllocatorDoubleFreeDetected(t *testing.T) {
	a := newAllocator(seqIDs(0, 10))
	got := a.alloc(4)
	if err := a.release(got); err != nil {
		t.Fatal(err)
	}
	if err := a.release(got); err == nil {
		t.Error("double free accepted")
	}
	if err := a.release([]machine.NodeID{3, 3}); err == nil {
		t.Error("duplicate IDs in release accepted")
	}
}

func TestAllocatorReleaseEmpty(t *testing.T) {
	a := newAllocator(seqIDs(0, 4))
	if err := a.release(nil); err != nil {
		t.Errorf("release(nil) = %v", err)
	}
}

// TestAllocatorRandomizedInvariant drives random alloc/release cycles and
// checks conservation: free + live == capacity, no ID handed out twice.
func TestAllocatorRandomizedInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const capacity = 200
		a := newAllocator(seqIDs(0, capacity))
		live := make(map[machine.NodeID]bool)
		var allocs [][]machine.NodeID
		for step := 0; step < 300; step++ {
			if rng.Intn(2) == 0 && a.freeCount() > 0 {
				n := 1 + rng.Intn(a.freeCount())
				got := a.alloc(n)
				if len(got) != n {
					return false
				}
				for _, id := range got {
					if live[id] {
						return false // double allocation
					}
					live[id] = true
				}
				allocs = append(allocs, got)
			} else if len(allocs) > 0 {
				i := rng.Intn(len(allocs))
				batch := allocs[i]
				allocs = append(allocs[:i], allocs[i+1:]...)
				if err := a.release(batch); err != nil {
					return false
				}
				for _, id := range batch {
					delete(live, id)
				}
			}
			if a.freeCount()+len(live) != capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
