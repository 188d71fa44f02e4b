package alps

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"logdiver/internal/machine"
	"logdiver/internal/parse"
)

// FormatNIDList renders a node-ID set in the compact range notation ALPS
// uses in its logs, e.g. "12-27,100,102-110". The input need not be sorted;
// duplicates are collapsed. An empty input renders as "".
func FormatNIDList(ids []machine.NodeID) string {
	if len(ids) == 0 {
		return ""
	}
	sorted := make([]machine.NodeID, len(ids))
	copy(sorted, ids)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	var b strings.Builder
	b.Grow(len(sorted) * 4)
	writeRange := func(lo, hi machine.NodeID) {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(lo)))
		if hi > lo {
			b.WriteByte('-')
			b.WriteString(strconv.Itoa(int(hi)))
		}
	}
	lo := sorted[0]
	hi := sorted[0]
	for _, id := range sorted[1:] {
		switch {
		case id == hi || id == hi+1:
			if id == hi+1 {
				hi = id
			}
		default:
			writeRange(lo, hi)
			lo, hi = id, id
		}
	}
	writeRange(lo, hi)
	return b.String()
}

// maxNIDListLen bounds the total node count a single list may expand to.
// The largest real machines have tens of thousands of nodes; the cap exists
// so adversarial inputs (many maximal ranges in one list) cannot force
// gigabytes of allocation before validation fails.
const maxNIDListLen = 1 << 22

// maxNID is the largest ID a machine.NodeID holds; a larger one is malformed
// rather than wrapped to a negative node.
const maxNID = math.MaxInt32

// ParseNIDListBytes parses the compact range notation produced by
// FormatNIDList from a byte view. It returns node IDs in ascending order; an
// empty list yields nil. It makes exactly one allocation (the result slice,
// sized by a counting pre-pass) on valid input, allocating otherwise only to
// build errors.
func ParseNIDListBytes(s []byte) ([]machine.NodeID, error) {
	if len(s) == 0 {
		return nil, nil
	}
	// Pass 1: validate every range and count the total expansion.
	total := 0
	for start := 0; start <= len(s); {
		part, next := nidPart(s, start)
		start = next
		lo, hi, err := nidRange(part, s)
		if err != nil {
			return nil, err
		}
		if hi-lo >= maxNIDListLen || total+int(hi-lo)+1 > maxNIDListLen {
			return nil, fmt.Errorf("alps: nid list %q implausibly large", s)
		}
		total += int(hi-lo) + 1
	}
	// Pass 2: fill.
	out := make([]machine.NodeID, 0, total)
	for start := 0; start <= len(s); {
		part, next := nidPart(s, start)
		start = next
		lo, hi, _ := nidRange(part, s)
		// int, not NodeID: the increment past hi must not wrap at maxNID.
		for id := int(lo); id <= int(hi); id++ {
			out = append(out, machine.NodeID(id))
		}
	}
	for i := 1; i < len(out); i++ {
		if out[i] <= out[i-1] {
			return nil, fmt.Errorf("alps: nid list %q not strictly ascending", s)
		}
	}
	return out, nil
}

// nidPart returns the comma-separated part starting at start and the next
// scan position, mirroring strings.Split(s, ",") iteration.
func nidPart(s []byte, start int) (part []byte, next int) {
	if i := bytes.IndexByte(s[start:], ','); i >= 0 {
		return s[start : start+i], start + i + 1
	}
	return s[start:], len(s) + 1
}

// nidRange parses one "lo" or "lo-hi" part of list.
func nidRange(part, list []byte) (lo, hi machine.NodeID, err error) {
	loB, hiB := part, []byte(nil)
	isRange := false
	if i := bytes.IndexByte(part, '-'); i >= 0 {
		loB, hiB, isRange = part[:i], part[i+1:], true
	}
	l, ok := parse.Atoi(loB)
	if !ok || l < 0 || l > maxNID {
		return 0, 0, fmt.Errorf("alps: bad nid %q in list %q", part, list)
	}
	h := l
	if isRange {
		h, ok = parse.Atoi(hiB)
		if !ok || h < l || h > maxNID {
			return 0, 0, fmt.Errorf("alps: bad nid range %q in list %q", part, list)
		}
	}
	return machine.NodeID(l), machine.NodeID(h), nil
}
