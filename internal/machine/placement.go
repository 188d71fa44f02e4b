package machine

import "slices"

// NodeRange is the inclusive run of node IDs Lo..Hi.
type NodeRange struct{ Lo, Hi NodeID }

// Placement is a set of nodes as ascending, non-adjacent inclusive ranges:
// Lo <= Hi within a range, and each range starts past the previous Hi+1. It
// is the form ALPS logs a run's node list in — a placement of 22,000 nodes
// is a handful of ranges — and the only form the pipeline holds it in.
type Placement []NodeRange

// PlacementOf returns the placement of a node-ID list. The list need not be
// sorted and duplicates collapse; it is not modified.
func PlacementOf(ids []NodeID) Placement {
	if !slices.IsSorted(ids) {
		ids = slices.Clone(ids)
		slices.Sort(ids)
	}
	var p Placement
	for _, id := range ids {
		if k := len(p) - 1; k >= 0 && (id <= p[k].Hi || id == p[k].Hi+1) {
			p[k].Hi = max(p[k].Hi, id)
			continue
		}
		p = append(p, NodeRange{id, id})
	}
	return p
}

// Len returns the number of nodes in the placement.
func (p Placement) Len() int {
	n := 0
	for _, r := range p {
		n += int(r.Hi-r.Lo) + 1
	}
	return n
}

// Contains reports whether id lies in one of the placement's ranges.
func (p Placement) Contains(id NodeID) bool {
	lo, hi := 0, len(p) // the first range with Hi >= id is in [lo, hi]
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if p[m].Hi < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo < len(p) && p[lo].Lo <= id
}

// Nodes expands the placement into its ascending node IDs.
func (p Placement) Nodes() []NodeID {
	out := make([]NodeID, 0, p.Len())
	for _, r := range p {
		// int, not NodeID: the increment past Hi must not wrap at the
		// largest NodeID.
		for id := int(r.Lo); id <= int(r.Hi); id++ {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// AnyXK reports whether the placement includes an XK node, in O(ranges).
// IDs outside the topology are ignored.
func (t *Topology) AnyXK(p Placement) bool {
	last := NodeID(len(t.nodes) - 1)
	for _, r := range p {
		lo, hi := max(r.Lo, 0), min(r.Hi, last)
		if lo <= hi && t.xkBefore[hi+1] > t.xkBefore[lo] {
			return true
		}
	}
	return false
}
