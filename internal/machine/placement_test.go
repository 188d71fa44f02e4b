package machine

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

func TestPlacementOf(t *testing.T) {
	for _, tt := range []struct {
		give []NodeID
		want Placement
	}{
		{nil, nil},
		{[]NodeID{5}, Placement{{5, 5}}},
		{[]NodeID{3, 1, 2}, Placement{{1, 3}}},
		{[]NodeID{1, 2, 3, 7, 9, 10}, Placement{{1, 3}, {7, 7}, {9, 10}}},
		{[]NodeID{4, 4, 4}, Placement{{4, 4}}},
		{[]NodeID{0, 1, 5, 5, 6}, Placement{{0, 1}, {5, 6}}},
		{[]NodeID{2147483646, 2147483647, 2147483647}, Placement{{2147483646, 2147483647}}},
	} {
		in := slices.Clone(tt.give)
		if got := PlacementOf(tt.give); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("PlacementOf(%v) = %v, want %v", tt.give, got, tt.want)
		}
		if !slices.Equal(in, tt.give) {
			t.Errorf("PlacementOf modified its input %v to %v", in, tt.give)
		}
	}
}

// TestPlacementAgainstNodeList checks Len, Contains and Nodes against the
// node list a random placement was built from.
func TestPlacementAgainstNodeList(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		set := make(map[NodeID]bool)
		var ids []NodeID
		for i := rng.Intn(40); i > 0; i-- {
			id := NodeID(rng.Intn(60))
			if !set[id] {
				set[id] = true
				ids = append(ids, id)
			}
		}
		p := PlacementOf(ids)
		slices.Sort(ids)
		if got := p.Nodes(); len(got) != len(ids) || len(ids) > 0 && !slices.Equal(got, ids) {
			t.Fatalf("PlacementOf(%v).Nodes() = %v", ids, got)
		}
		if p.Len() != len(ids) {
			t.Fatalf("PlacementOf(%v).Len() = %d", ids, p.Len())
		}
		for id := NodeID(-2); id < 64; id++ {
			if p.Contains(id) != set[id] {
				t.Fatalf("PlacementOf(%v).Contains(%d) = %v", ids, id, !set[id])
			}
		}
	}
}

// TestAnyXKMatchesNodeClasses checks the prefix-count test against the class
// of every node of the placement, out-of-topology IDs included.
func TestAnyXKMatchesNodeClasses(t *testing.T) {
	top, err := New(Small())
	if err != nil {
		t.Fatal(err)
	}
	n := top.NumNodes()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		var ids []NodeID
		for i := 1 + rng.Intn(4); i > 0; i-- {
			lo := rng.Intn(n + 50)
			for k := rng.Intn(200); k >= 0; k-- {
				ids = append(ids, NodeID(lo+k))
			}
		}
		want := false
		for _, id := range ids {
			if node, err := top.Node(id); err == nil && node.Class == ClassXK {
				want = true
			}
		}
		if got := top.AnyXK(PlacementOf(ids)); got != want {
			t.Fatalf("AnyXK(%v) = %v, want %v", PlacementOf(ids), got, want)
		}
	}
	if top.AnyXK(nil) || !top.AnyXK(Placement{{0, NodeID(n + 100)}}) {
		t.Error("AnyXK of the empty placement or of the whole machine is wrong")
	}
}
