package alps

// The string-form reference of the apsys message and node-list parsers and
// of the node-list writer. No product code calls it: it is the independent,
// map-backed and list-expanding implementation ParseMessageBytes,
// ParseNIDListBytes, ParseNIDRangesBytes and StartMessage are pinned to
// (TestParseMessageBytesMatchesParseMessage, FuzzParseMessage,
// TestParseNIDListBytesMatchesParseNIDList, FuzzParseNIDList).

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"logdiver/internal/machine"
	"logdiver/internal/parse"
)

// Message is one parsed apsys message body.
type Message struct {
	Kind     MessageKind
	ApID     uint64
	User     string
	JobID    string
	Cmd      string
	Width    int
	Nodes    []machine.NodeID
	ExitCode int
	Signal   int
	NodeCnt  int
}

// ParseMessage parses an apsys message body. Bodies that are valid apsys
// output but not Starting/Finishing records (e.g. error chatter) yield
// KindUnknown with a nil error so callers can skip them cheaply.
func ParseMessage(body string) (Message, error) {
	var m Message
	fields, err := splitFields(body)
	if err != nil {
		return m, err
	}
	apidStr, ok := fields["apid"]
	if !ok {
		return m, nil // apsys chatter without an apid: not a placement record
	}
	apid, err := strconv.ParseUint(apidStr, 10, 64)
	if err != nil {
		return m, parse.Errorf(parse.KindField, body, "alps: bad apid %q", apidStr)
	}
	m.ApID = apid
	switch {
	case fields["_marker"] == "Starting":
		m.Kind = KindStarting
		m.User = fields["user"]
		m.JobID = fields["batch_id"]
		m.Cmd = fields["cmd"]
		if m.Width, err = atoiField(fields, "width", body); err != nil {
			return m, err
		}
		numNodes, err := atoiField(fields, "num_nodes", body)
		if err != nil {
			return m, err
		}
		m.Nodes, err = ParseNIDList(fields["node_list"])
		if err != nil {
			return m, parse.Errorf(parse.KindField, body, "alps: bad node_list: %s", err.Error())
		}
		if len(m.Nodes) != numNodes {
			return m, parse.Errorf(parse.KindStructure, body, "alps: apid %d claims %d nodes but lists %d", apid, numNodes, len(m.Nodes))
		}
	case fields["_marker"] == "Finishing":
		m.Kind = KindFinishing
		if m.ExitCode, err = atoiField(fields, "exit_code", body); err != nil {
			return m, err
		}
		if m.Signal, err = atoiField(fields, "signal", body); err != nil {
			return m, err
		}
		if m.NodeCnt, err = atoiField(fields, "node_cnt", body); err != nil {
			return m, err
		}
	default:
		m.Kind = KindUnknown
	}
	return m, nil
}

// splitFields parses "k=v, k=v, Marker, k=v" bodies. Bare words (no '=')
// are collected under the "_marker" pseudo-key; the last one wins.
func splitFields(body string) (map[string]string, error) {
	fields := make(map[string]string, 8)
	for _, part := range strings.Split(body, ", ") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if k, v, ok := strings.Cut(part, "="); ok {
			if k == "" {
				return nil, parse.Errorf(parse.KindStructure, body, "alps: empty key")
			}
			fields[k] = v
		} else {
			fields["_marker"] = part
		}
	}
	return fields, nil
}

func atoiField(fields map[string]string, key, body string) (int, error) {
	v, ok := fields[key]
	if !ok {
		return 0, parse.Errorf(parse.KindField, body, "alps: missing field %q", key)
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, parse.Errorf(parse.KindField, body, "alps: field %s=%q not a number", key, v)
	}
	return n, nil
}

// Add folds one timestamped apsys message into the assembler. It delegates
// to AddView (the byte-view entry point ingestion uses) so the assembler has
// one fold implementation.
func (a *Assembler) Add(at time.Time, m Message) error {
	return a.AddView(at, MessageView{
		Kind:      m.Kind,
		ApID:      m.ApID,
		User:      []byte(m.User),
		JobID:     []byte(m.JobID),
		Cmd:       []byte(m.Cmd),
		Width:     m.Width,
		Placement: machine.PlacementOf(m.Nodes),
		ExitCode:  m.ExitCode,
		Signal:    m.Signal,
		NodeCnt:   m.NodeCnt,
	})
}

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

// ParseNIDList parses the compact range notation produced by FormatNIDList.
// It returns node IDs in ascending order. An empty string yields nil.
func ParseNIDList(s string) ([]machine.NodeID, error) {
	if s == "" {
		return nil, nil
	}
	var out []machine.NodeID
	for _, part := range strings.Split(s, ",") {
		loStr, hiStr, isRange := strings.Cut(part, "-")
		lo, err := strconv.Atoi(loStr)
		if err != nil || lo < 0 || lo > maxNID {
			return nil, fmt.Errorf("alps: bad nid %q in list %q", part, s)
		}
		hi := lo
		if isRange {
			hi, err = strconv.Atoi(hiStr)
			if err != nil || hi < lo || hi > maxNID {
				return nil, fmt.Errorf("alps: bad nid range %q in list %q", part, s)
			}
		}
		if hi-lo >= maxNIDListLen || len(out)+(hi-lo+1) > maxNIDListLen {
			return nil, fmt.Errorf("alps: nid list %q implausibly large", s)
		}
		for id := lo; id <= hi; id++ {
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
