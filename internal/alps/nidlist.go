package alps

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"

	"logdiver/internal/machine"
	"logdiver/internal/parse"
)

// maxNIDListLen bounds the total node count a single list may expand to.
// The largest real machines have tens of thousands of nodes; the cap exists
// so adversarial inputs (many maximal ranges in one list) cannot claim
// gigabytes of nodes, and so a placement's node count fits an int32.
const maxNIDListLen = 1 << 22

// maxNID is the largest ID a machine.NodeID holds; a larger one is malformed
// rather than wrapped to a negative node.
const maxNID = math.MaxInt32

// writeNIDList renders a placement in the compact range notation ALPS uses
// in its logs, e.g. "12-27,100,102-110"; an empty placement renders as "".
func writeNIDList(b *strings.Builder, p machine.Placement) {
	for i, r := range p {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(r.Lo)))
		if r.Hi > r.Lo {
			b.WriteByte('-')
			b.WriteString(strconv.Itoa(int(r.Hi)))
		}
	}
}

// ParseNIDRangesBytes parses the compact range notation from a byte view
// straight to a placement, never expanding it. Every part must be a NID or
// an ascending "lo-hi" range of NIDs, parts must be strictly ascending and
// the list must hold at most maxNIDListLen nodes; adjacent parts coalesce, so
// the placement is canonical. An empty list yields nil. It makes exactly one
// allocation (the range slice) on valid input, allocating otherwise only to
// build errors.
func ParseNIDRangesBytes(s []byte) (machine.Placement, error) {
	if len(s) == 0 {
		return nil, nil
	}
	out := make(machine.Placement, 0, bytes.Count(s, []byte{','})+1)
	total := 0
	ascending := true
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
		// An out-of-order part is reported only once every part has been
		// validated: a malformed or oversized part takes precedence.
		switch k := len(out) - 1; {
		case k >= 0 && lo <= out[k].Hi:
			ascending = false
		case k >= 0 && lo == out[k].Hi+1:
			out[k].Hi = hi
		default:
			out = append(out, machine.NodeRange{Lo: lo, Hi: hi})
		}
	}
	if !ascending {
		return nil, fmt.Errorf("alps: nid list %q not strictly ascending", s)
	}
	return out, nil
}

// ParseNIDListBytes is ParseNIDRangesBytes expanded: the node IDs of the
// list in ascending order, nil for an empty list.
func ParseNIDListBytes(s []byte) ([]machine.NodeID, error) {
	p, err := ParseNIDRangesBytes(s)
	if err != nil || p == nil {
		return nil, err
	}
	return p.Nodes(), nil
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
