// Package machine models the physical structure of a Cray XE/XK system in
// the style of Blue Waters: cabinets arranged in a column/row grid, three
// cages (chassis) per cabinet, eight blades per cage, four compute nodes per
// blade, and one Gemini ASIC per node pair. The package provides the cname
// addressing scheme used throughout Cray logs (for example "c12-3c2s7n1"),
// the XE (CPU) / XK (CPU+GPU) node partitioning, and the failure-domain
// groupings (blade, Gemini pair, cabinet) that spatial log coalescing relies
// on.
package machine

import (
	"fmt"
	"strconv"
	"strings"
)

// Structural constants of a Cray XE/XK cabinet.
const (
	CagesPerCabinet = 3
	BladesPerCage   = 8
	NodesPerBlade   = 4
	NodesPerCabinet = CagesPerCabinet * BladesPerCage * NodesPerBlade // 96

	// NodesPerGemini is the number of compute nodes sharing one Gemini
	// network ASIC. A blade carries two Gemini ASICs, each wired to a
	// pair of nodes; a Gemini failure takes both of its nodes off the
	// high-speed network.
	NodesPerGemini = 2
)

// NodeClass distinguishes the hardware flavour of a node.
type NodeClass int

const (
	// ClassXE is a dual-socket CPU-only compute node (Cray XE6).
	ClassXE NodeClass = iota + 1
	// ClassXK is a hybrid CPU+GPU compute node (Cray XK7).
	ClassXK
	// ClassService is a service/IO node (MOM, LNET router, boot, SDB).
	ClassService
)

// String returns the conventional short name of the class.
func (c NodeClass) String() string {
	switch c {
	case ClassXE:
		return "XE"
	case ClassXK:
		return "XK"
	case ClassService:
		return "SERVICE"
	default:
		return "UNKNOWN(" + strconv.Itoa(int(c)) + ")"
	}
}

// NodeID is a dense machine-wide node index in [0, NumNodes).
type NodeID int32

// Cname is a Cray component name addressing a node:
// c<col>-<row>c<cage>s<slot>n<node>.
type Cname struct {
	Col  int // cabinet column
	Row  int // cabinet row
	Cage int // chassis within cabinet, 0..2
	Slot int // blade slot within cage, 0..7
	Node int // node within blade, 0..3
}

// String renders the cname in log form, e.g. "c12-3c2s7n1".
func (c Cname) String() string {
	var b strings.Builder
	b.Grow(16)
	b.WriteByte('c')
	b.WriteString(strconv.Itoa(c.Col))
	b.WriteByte('-')
	b.WriteString(strconv.Itoa(c.Row))
	b.WriteByte('c')
	b.WriteString(strconv.Itoa(c.Cage))
	b.WriteByte('s')
	b.WriteString(strconv.Itoa(c.Slot))
	b.WriteByte('n')
	b.WriteString(strconv.Itoa(c.Node))
	return b.String()
}

// ParseCname parses a full node cname such as "c12-3c2s7n1".
func ParseCname(s string) (Cname, error) {
	var c Cname
	rest, ok := strings.CutPrefix(s, "c")
	if !ok {
		return c, fmt.Errorf("cname %q: missing leading 'c'", s)
	}
	colStr, rest, ok := strings.Cut(rest, "-")
	if !ok {
		return c, fmt.Errorf("cname %q: missing '-'", s)
	}
	rowStr, rest, ok := strings.Cut(rest, "c")
	if !ok {
		return c, fmt.Errorf("cname %q: missing cage marker", s)
	}
	cageStr, rest, ok := strings.Cut(rest, "s")
	if !ok {
		return c, fmt.Errorf("cname %q: missing slot marker", s)
	}
	slotStr, nodeStr, ok := strings.Cut(rest, "n")
	if !ok {
		return c, fmt.Errorf("cname %q: missing node marker", s)
	}
	var err error
	if c.Col, err = strconv.Atoi(colStr); err != nil {
		return c, fmt.Errorf("cname %q: column: %w", s, err)
	}
	if c.Row, err = strconv.Atoi(rowStr); err != nil {
		return c, fmt.Errorf("cname %q: row: %w", s, err)
	}
	if c.Cage, err = strconv.Atoi(cageStr); err != nil {
		return c, fmt.Errorf("cname %q: cage: %w", s, err)
	}
	if c.Slot, err = strconv.Atoi(slotStr); err != nil {
		return c, fmt.Errorf("cname %q: slot: %w", s, err)
	}
	if c.Node, err = strconv.Atoi(nodeStr); err != nil {
		return c, fmt.Errorf("cname %q: node: %w", s, err)
	}
	if c.Cage < 0 || c.Cage >= CagesPerCabinet {
		return c, fmt.Errorf("cname %q: cage %d out of range", s, c.Cage)
	}
	if c.Slot < 0 || c.Slot >= BladesPerCage {
		return c, fmt.Errorf("cname %q: slot %d out of range", s, c.Slot)
	}
	if c.Node < 0 || c.Node >= NodesPerBlade {
		return c, fmt.Errorf("cname %q: node %d out of range", s, c.Node)
	}
	if c.Col < 0 || c.Row < 0 {
		return c, fmt.Errorf("cname %q: negative cabinet coordinate", s)
	}
	return c, nil
}

// BladeID identifies a blade (a four-node field-replaceable unit and the
// spatial failure domain for voltage faults and mezzanine failures).
type BladeID int32

// GeminiID identifies a Gemini ASIC (a two-node network failure domain).
type GeminiID int32

// Node is one compute or service node.
type Node struct {
	ID     NodeID
	Cname  Cname
	Class  NodeClass
	Blade  BladeID
	Gemini GeminiID
	// Torus is the (x,y,z) coordinate of the node's Gemini ASIC in the
	// 3D torus.
	Torus [3]int
}

// Config sizes a machine. The zero value is not valid; use BlueWaters or fill
// every field.
type Config struct {
	// Cols and Rows give the cabinet grid.
	Cols, Rows int
	// XKCabinets is the number of cabinet columns (counted from the
	// highest column index downward) populated with XK hybrid blades.
	// All remaining compute cabinets hold XE blades.
	XKCabinets int
	// ServiceNodesPerCabinet reserves this many node slots per XE cabinet
	// (taken from cage 0, slot 0 upward) as service nodes. XK cabinets are
	// fully populated with compute nodes, matching the measured system
	// where the hybrid partition is exactly 4,224 XK nodes.
	ServiceNodesPerCabinet int
}

// BlueWaters returns the configuration of the measured system: 288 cabinets
// in a 24x12 grid, 27,648 node slots, with 44 cabinets of XK hybrid nodes
// (4,224 XK compute nodes) and a small service partition, leaving roughly
// 22,640 XE compute nodes — matching the scales reported in the paper
// (XE applications up to 22,000 nodes; XK applications up to 4,224 nodes).
func BlueWaters() Config {
	return Config{
		Cols:                   24,
		Rows:                   12,
		XKCabinets:             44,
		ServiceNodesPerCabinet: 1,
	}
}

// Small returns a scaled-down configuration useful for tests and examples:
// 16 cabinets (1,536 node slots) with 3 XK cabinets.
func Small() Config {
	return Config{
		Cols:                   4,
		Rows:                   4,
		XKCabinets:             3,
		ServiceNodesPerCabinet: 1,
	}
}

// Topology is an immutable description of every node in the machine.
type Topology struct {
	cfg     Config
	nodes   []Node
	byCname map[Cname]NodeID
	xe      []NodeID
	xk      []NodeID
	// xkBefore[i] is the number of XK nodes with an ID below i, so a range
	// holds an XK node iff the count differs across it (see AnyXK).
	xkBefore []int32
	blades   int
	geminis  int
}

// New builds the topology for cfg. It validates the configuration and
// assigns dense node, blade and Gemini IDs in cname order.
func New(cfg Config) (*Topology, error) {
	if cfg.Cols <= 0 || cfg.Rows <= 0 {
		return nil, fmt.Errorf("machine: cabinet grid %dx%d is empty", cfg.Cols, cfg.Rows)
	}
	cabinets := cfg.Cols * cfg.Rows
	if cfg.XKCabinets < 0 || cfg.XKCabinets > cabinets {
		return nil, fmt.Errorf("machine: %d XK cabinets outside [0,%d]", cfg.XKCabinets, cabinets)
	}
	if cfg.ServiceNodesPerCabinet < 0 || cfg.ServiceNodesPerCabinet > NodesPerCabinet {
		return nil, fmt.Errorf("machine: %d service nodes per cabinet outside [0,%d]",
			cfg.ServiceNodesPerCabinet, NodesPerCabinet)
	}

	total := cabinets * NodesPerCabinet
	t := &Topology{
		cfg:     cfg,
		nodes:   make([]Node, 0, total),
		byCname: make(map[Cname]NodeID, total),
		blades:  cabinets * CagesPerCabinet * BladesPerCage,
		geminis: total / NodesPerGemini,
	}

	// Cabinets with linear index >= cabinets-XKCabinets hold XK blades.
	xkStart := cabinets - cfg.XKCabinets
	for col := 0; col < cfg.Cols; col++ {
		for row := 0; row < cfg.Rows; row++ {
			cabIdx := col*cfg.Rows + row
			class := ClassXE
			serviceSlots := cfg.ServiceNodesPerCabinet
			if cabIdx >= xkStart {
				class = ClassXK
				serviceSlots = 0
			}
			t.addCabinet(col, row, cabIdx, class, serviceSlots)
		}
	}
	t.xkBefore = make([]int32, len(t.nodes)+1)
	for i, n := range t.nodes {
		t.xkBefore[i+1] = t.xkBefore[i]
		if n.Class == ClassXK {
			t.xkBefore[i+1]++
		}
	}
	return t, nil
}

func (t *Topology) addCabinet(col, row, cabIdx int, class NodeClass, serviceSlots int) {
	for cage := 0; cage < CagesPerCabinet; cage++ {
		for slot := 0; slot < BladesPerCage; slot++ {
			bladeIdx := BladeID((cabIdx*CagesPerCabinet+cage)*BladesPerCage + slot)
			for n := 0; n < NodesPerBlade; n++ {
				id := NodeID(len(t.nodes))
				cn := Cname{Col: col, Row: row, Cage: cage, Slot: slot, Node: n}
				nodeClass := class
				// Service nodes occupy the first slots of cage 0.
				if cage == 0 && slot*NodesPerBlade+n < serviceSlots {
					nodeClass = ClassService
				}
				gem := GeminiID(int(id) / NodesPerGemini)
				node := Node{
					ID:     id,
					Cname:  cn,
					Class:  nodeClass,
					Blade:  bladeIdx,
					Gemini: gem,
					Torus:  torusCoord(int(gem), t.cfg),
				}
				t.nodes = append(t.nodes, node)
				t.byCname[cn] = id
				switch nodeClass {
				case ClassXE:
					t.xe = append(t.xe, id)
				case ClassXK:
					t.xk = append(t.xk, id)
				}
			}
		}
	}
}

// torusCoord maps a Gemini index onto a 3D torus whose X dimension follows
// cabinet columns, Y follows rows+cages, and Z follows slots and node pairs.
// The exact embedding is not material to the analysis; what matters is that
// nearby blades map to nearby torus coordinates, as on the real machine.
func torusCoord(gemini int, cfg Config) [3]int {
	const geminisPerCabinet = NodesPerCabinet / NodesPerGemini // 48
	const geminisPerCage = geminisPerCabinet / CagesPerCabinet // 16
	cab := gemini / geminisPerCabinet
	within := gemini % geminisPerCabinet
	col := cab / cfg.Rows
	row := cab % cfg.Rows
	return [3]int{
		col,
		row*CagesPerCabinet + within/geminisPerCage,
		within % geminisPerCage,
	}
}

// NumNodes returns the total number of node slots (all classes).
func (t *Topology) NumNodes() int { return len(t.nodes) }

// NumBlades returns the number of blades.
func (t *Topology) NumBlades() int { return t.blades }

// NumGeminis returns the number of Gemini ASICs.
func (t *Topology) NumGeminis() int { return t.geminis }

// Node returns the node with the given ID.
func (t *Topology) Node(id NodeID) (Node, error) {
	if int(id) < 0 || int(id) >= len(t.nodes) {
		return Node{}, fmt.Errorf("machine: node id %d outside [0,%d)", id, len(t.nodes))
	}
	return t.nodes[id], nil
}

// MustNode is Node for callers that have already validated the ID; it panics
// on an out-of-range ID, which indicates a programming error.
func (t *Topology) MustNode(id NodeID) Node {
	n, err := t.Node(id)
	if err != nil {
		panic(err)
	}
	return n
}

// Lookup resolves a cname to a node ID.
func (t *Topology) Lookup(c Cname) (NodeID, bool) {
	id, ok := t.byCname[c]
	return id, ok
}

// LookupString parses and resolves a cname string.
func (t *Topology) LookupString(s string) (NodeID, error) {
	c, err := ParseCname(s)
	if err != nil {
		return 0, err
	}
	id, ok := t.Lookup(c)
	if !ok {
		return 0, fmt.Errorf("machine: cname %q not present in topology", s)
	}
	return id, nil
}

// XENodes returns the IDs of all XE compute nodes. The returned slice is a
// copy and safe to modify.
func (t *Topology) XENodes() []NodeID { return copyIDs(t.xe) }

// XKNodes returns the IDs of all XK compute nodes.
func (t *Topology) XKNodes() []NodeID { return copyIDs(t.xk) }

// NumXE and NumXK report partition sizes without copying.
func (t *Topology) NumXE() int { return len(t.xe) }

// NumXK reports the number of XK compute nodes.
func (t *Topology) NumXK() int { return len(t.xk) }

// BladeNodes returns the four node IDs on a blade.
func (t *Topology) BladeNodes(b BladeID) ([]NodeID, error) {
	if int(b) < 0 || int(b) >= t.blades {
		return nil, fmt.Errorf("machine: blade %d outside [0,%d)", b, t.blades)
	}
	base := NodeID(int(b) * NodesPerBlade)
	ids := make([]NodeID, NodesPerBlade)
	for i := range ids {
		ids[i] = base + NodeID(i)
	}
	return ids, nil
}

// GeminiNodes returns the two node IDs served by a Gemini ASIC.
func (t *Topology) GeminiNodes(g GeminiID) ([]NodeID, error) {
	if int(g) < 0 || int(g) >= t.geminis {
		return nil, fmt.Errorf("machine: gemini %d outside [0,%d)", g, t.geminis)
	}
	base := NodeID(int(g) * NodesPerGemini)
	return []NodeID{base, base + 1}, nil
}

// Config returns the configuration the topology was built from.
func (t *Topology) Config() Config { return t.cfg }

func copyIDs(src []NodeID) []NodeID {
	out := make([]NodeID, len(src))
	copy(out, src)
	return out
}
