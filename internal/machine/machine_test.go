package machine

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseCnameRoundTrip(t *testing.T) {
	tests := []struct {
		give string
		want Cname
	}{
		{"c0-0c0s0n0", Cname{0, 0, 0, 0, 0}},
		{"c12-3c2s7n1", Cname{12, 3, 2, 7, 1}},
		{"c23-11c1s4n3", Cname{23, 11, 1, 4, 3}},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			got, err := ParseCname(tt.give)
			if err != nil {
				t.Fatalf("ParseCname(%q): %v", tt.give, err)
			}
			if got != tt.want {
				t.Errorf("ParseCname(%q) = %+v, want %+v", tt.give, got, tt.want)
			}
			if s := got.String(); s != tt.give {
				t.Errorf("String() = %q, want %q", s, tt.give)
			}
		})
	}
}

func TestParseCnameErrors(t *testing.T) {
	bad := []string{
		"",
		"x0-0c0s0n0",
		"c0c0s0n0",
		"c0-0s0n0",
		"c0-0c0n0",
		"c0-0c0s0",
		"c0-0c3s0n0",  // cage out of range
		"c0-0c0s8n0",  // slot out of range
		"c0-0c0s0n4",  // node out of range
		"c-1-0c0s0n0", // negative column
		"ca-0c0s0n0",  // non-numeric
	}
	for _, s := range bad {
		if _, err := ParseCname(s); err == nil {
			t.Errorf("ParseCname(%q) succeeded, want error", s)
		}
	}
}

func TestParseCnamePropertyRoundTrip(t *testing.T) {
	f := func(col, row uint8, cage, slot, node uint8) bool {
		c := Cname{
			Col:  int(col),
			Row:  int(row),
			Cage: int(cage % CagesPerCabinet),
			Slot: int(slot % BladesPerCage),
			Node: int(node % NodesPerBlade),
		}
		got, err := ParseCname(c.String())
		return err == nil && got == c
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestBlueWatersShape(t *testing.T) {
	top, err := New(BlueWaters())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := top.NumNodes(), 288*NodesPerCabinet; got != want {
		t.Errorf("NumNodes = %d, want %d", got, want)
	}
	// The paper scales XE applications to 22,000 nodes and XK to 4,224.
	if top.NumXE() < 22000 {
		t.Errorf("NumXE = %d, want >= 22000", top.NumXE())
	}
	if top.NumXK() < 4224 {
		t.Errorf("NumXK = %d, want >= 4224", top.NumXK())
	}
	service := 0
	for id := 0; id < top.NumNodes(); id++ {
		if top.MustNode(NodeID(id)).Class == ClassService {
			service++
		}
	}
	if service == 0 {
		t.Error("no service nodes, want > 0")
	}
	if got, want := top.NumXE()+top.NumXK()+service, top.NumNodes(); got != want {
		t.Errorf("partition sizes sum to %d, want %d", got, want)
	}
	if got, want := top.NumGeminis(), top.NumNodes()/NodesPerGemini; got != want {
		t.Errorf("NumGeminis = %d, want %d", got, want)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{"empty", Config{}},
		{"negative xk", Config{Cols: 2, Rows: 2, XKCabinets: -1}},
		{"too many xk", Config{Cols: 2, Rows: 2, XKCabinets: 5}},
		{"service overflow", Config{Cols: 2, Rows: 2, ServiceNodesPerCabinet: NodesPerCabinet + 1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.cfg); err == nil {
				t.Errorf("New(%+v) succeeded, want error", tt.cfg)
			}
		})
	}
}

func TestLookupConsistency(t *testing.T) {
	top, err := New(Small())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < top.NumNodes(); i++ {
		id := NodeID(i)
		n := top.MustNode(id)
		if n.ID != id {
			t.Fatalf("node %d has ID %d", i, n.ID)
		}
		back, ok := top.Lookup(n.Cname)
		if !ok || back != id {
			t.Fatalf("Lookup(%v) = (%d,%v), want (%d,true)", n.Cname, back, ok, id)
		}
		got, err := top.LookupString(n.Cname.String())
		if err != nil || got != id {
			t.Fatalf("LookupString(%q) = (%d,%v), want (%d,nil)", n.Cname.String(), got, err, id)
		}
	}
}

func TestBladeAndGeminiGrouping(t *testing.T) {
	top, err := New(Small())
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < top.NumBlades(); b++ {
		ids, err := top.BladeNodes(BladeID(b))
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != NodesPerBlade {
			t.Fatalf("blade %d has %d nodes", b, len(ids))
		}
		for _, id := range ids {
			if got := top.MustNode(id).Blade; got != BladeID(b) {
				t.Fatalf("node %d reports blade %d, want %d", id, got, b)
			}
		}
	}
	for g := 0; g < top.NumGeminis(); g++ {
		ids, err := top.GeminiNodes(GeminiID(g))
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != NodesPerGemini {
			t.Fatalf("gemini %d has %d nodes", g, len(ids))
		}
		for _, id := range ids {
			if got := top.MustNode(id).Gemini; got != GeminiID(g) {
				t.Fatalf("node %d reports gemini %d, want %d", id, got, g)
			}
		}
	}
}

func TestBladeAndGeminiBounds(t *testing.T) {
	top, err := New(Small())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := top.BladeNodes(BladeID(top.NumBlades())); err == nil {
		t.Error("BladeNodes out of range succeeded")
	}
	if _, err := top.BladeNodes(-1); err == nil {
		t.Error("BladeNodes(-1) succeeded")
	}
	if _, err := top.GeminiNodes(GeminiID(top.NumGeminis())); err == nil {
		t.Error("GeminiNodes out of range succeeded")
	}
	if _, err := top.Node(NodeID(top.NumNodes())); err == nil {
		t.Error("Node out of range succeeded")
	}
	if _, err := top.Node(-1); err == nil {
		t.Error("Node(-1) succeeded")
	}
}

func TestXKNodesLiveInXKCabinets(t *testing.T) {
	top, err := New(Small())
	if err != nil {
		t.Fatal(err)
	}
	cfg := top.Config()
	cabinets := cfg.Cols * cfg.Rows
	xkStart := cabinets - cfg.XKCabinets
	cabinetOf := func(id NodeID) int {
		n := top.MustNode(id)
		return n.Cname.Col*cfg.Rows + n.Cname.Row
	}
	for _, id := range top.XKNodes() {
		if cab := cabinetOf(id); cab < xkStart {
			t.Fatalf("XK node %d in cabinet %d, before XK range start %d", id, cab, xkStart)
		}
	}
	for _, id := range top.XENodes() {
		if cab := cabinetOf(id); cab >= xkStart {
			t.Fatalf("XE node %d in cabinet %d, inside XK range", id, cab)
		}
	}
}

func TestReturnedSlicesAreCopies(t *testing.T) {
	top, err := New(Small())
	if err != nil {
		t.Fatal(err)
	}
	a := top.XENodes()
	if len(a) == 0 {
		t.Fatal("no XE nodes")
	}
	a[0] = -999
	b := top.XENodes()
	if b[0] == -999 {
		t.Error("XENodes exposes internal slice")
	}
}

func TestTorusCoordsNonNegativeAndBounded(t *testing.T) {
	top, err := New(BlueWaters())
	if err != nil {
		t.Fatal(err)
	}
	cfg := top.Config()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		id := NodeID(rng.Intn(top.NumNodes()))
		n := top.MustNode(id)
		if n.Torus[0] < 0 || n.Torus[0] >= cfg.Cols {
			t.Fatalf("node %d torus X %d outside [0,%d)", id, n.Torus[0], cfg.Cols)
		}
		if n.Torus[1] < 0 || n.Torus[1] >= cfg.Rows*CagesPerCabinet {
			t.Fatalf("node %d torus Y %d out of range", id, n.Torus[1])
		}
		if n.Torus[2] < 0 || n.Torus[2] >= 16 {
			t.Fatalf("node %d torus Z %d out of range", id, n.Torus[2])
		}
	}
}

func TestGeminiPairsShareTorusCoordinate(t *testing.T) {
	top, err := New(Small())
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < top.NumGeminis(); g++ {
		ids, err := top.GeminiNodes(GeminiID(g))
		if err != nil {
			t.Fatal(err)
		}
		a, b := top.MustNode(ids[0]), top.MustNode(ids[1])
		if a.Torus != b.Torus {
			t.Fatalf("gemini %d nodes have torus %v and %v", g, a.Torus, b.Torus)
		}
	}
}

func TestNodeClassString(t *testing.T) {
	tests := []struct {
		give NodeClass
		want string
	}{
		{ClassXE, "XE"},
		{ClassXK, "XK"},
		{ClassService, "SERVICE"},
		{NodeClass(99), "UNKNOWN(99)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func ExampleParseCname() {
	c, err := ParseCname("c12-3c2s7n1")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(c.Col, c.Row, c.Cage, c.Slot, c.Node)
	// Output: 12 3 2 7 1
}
