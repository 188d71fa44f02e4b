package taxonomy_test

import (
	"math/rand"
	"testing"

	"logdiver/internal/errlog"
	"logdiver/internal/taxonomy"
)

func TestCategoryStringRoundTrip(t *testing.T) {
	for _, c := range taxonomy.Categories() {
		s := c.String()
		back, ok := taxonomy.ParseCategory(s)
		if !ok || back != c {
			t.Errorf("ParseCategory(%q) = (%v,%v), want (%v,true)", s, back, ok, c)
		}
	}
	if _, ok := taxonomy.ParseCategory("NOT_A_CATEGORY"); ok {
		t.Error("ParseCategory accepted garbage")
	}
	if got := taxonomy.Category(999).String(); got != "CATEGORY(999)" {
		t.Errorf("unknown category String = %q", got)
	}
}

func TestEveryCategoryHasAGroup(t *testing.T) {
	for _, c := range taxonomy.Categories() {
		if c.Group() == taxonomy.GroupUnknown {
			t.Errorf("category %v has no group", c)
		}
	}
	if taxonomy.Unclassified.Group() != taxonomy.GroupUnknown {
		t.Error("Unclassified should map to GroupUnknown")
	}
}

func TestGroupString(t *testing.T) {
	for _, g := range taxonomy.Groups() {
		if g.String() == "UNKNOWN" {
			t.Errorf("group %d renders as UNKNOWN", g)
		}
	}
	if got := taxonomy.Group(99).String(); got != "GROUP(99)" {
		t.Errorf("unknown group String = %q", got)
	}
}

func TestSeverityString(t *testing.T) {
	tests := []struct {
		give taxonomy.Severity
		want string
	}{
		{taxonomy.SevInfo, "INFO"},
		{taxonomy.SevWarning, "WARN"},
		{taxonomy.SevError, "ERROR"},
		{taxonomy.SevCritical, "CRIT"},
		{taxonomy.Severity(42), "SEVERITY(42)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("Severity(%d).String() = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestBenignCategories(t *testing.T) {
	benign := map[taxonomy.Category]bool{
		taxonomy.HardwareMemoryCE: true,
		taxonomy.GPUPageRetir:     true,
		taxonomy.NodeRecovered:    true,
	}
	for _, c := range taxonomy.Categories() {
		if got, want := c.Benign(), benign[c]; got != want {
			t.Errorf("%v.Benign() = %v, want %v", c, got, want)
		}
	}
}

func TestClassifyKnownMessages(t *testing.T) {
	cls := taxonomy.Default()
	tests := []struct {
		msg  string
		want taxonomy.Category
	}{
		{"Machine Check Exception: corrected DRAM error on c1-2c0s3n1 bank 4 DIMM 9 syndrome 0x1a2b", taxonomy.HardwareMemoryCE},
		{"Machine Check Exception: uncorrected DRAM error on c1-2c0s3n1 bank 4 addr 0x00000a", taxonomy.HardwareMemoryUE},
		{"EDAC MC0: uncorrectable ECC memory error, node halted", taxonomy.HardwareMemoryUE},
		{"Machine Check Exception: L2 cache error, processor 12, status 0xdead", taxonomy.HardwareCPU},
		{"HSS event: voltage fault on c0-0c1s2n3 VRM 1, threshold exceeded", taxonomy.HardwarePower},
		{"blade controller fault on c0-0c1s2: L0 unresponsive, heartbeat missed 4 times", taxonomy.HardwareBlade},
		{"NVRM: Xid (PCI:0000:02:00): 48, Double-Bit ECC error detected, address 0xbeef", taxonomy.GPUMemoryDBE},
		{"NVRM: Xid (PCI:0000:02:00): 79, GPU has fallen off the bus.", taxonomy.GPUBusOff},
		{"NVRM: retiring page 0x1f00 due to single-bit ECC error", taxonomy.GPUPageRetir},
		{"HSN: LCB 12 lane degrade on c0-0c1s2g0, link inactive, recovery initiated", taxonomy.InterconnectLink},
		{"warm swap initiated: routing table update in progress", taxonomy.InterconnectRouting},
		{"LustreError: 1234:0:(ldlm_lock.c:847) LBUG", taxonomy.FilesystemLBUG},
		{"Lustre: lost contact with OST01a3, client evicted by server", taxonomy.FilesystemUnavail},
		{"Lustre: request x99 timed out after 100s, resending", taxonomy.FilesystemTimeout},
		{"HSS alert: node heartbeat fault on c2-1c0s4n2, declaring node dead", taxonomy.NodeHeartbeat},
		{"ec_node_available: node c2-1c0s4n2 returned to service after repair", taxonomy.NodeRecovered},
		{"warm boot complete, node c2-1c0s4n2 available", taxonomy.NodeRecovered},
		{"Kernel panic - not syncing: Fatal exception in interrupt on c2-1c0s4n2", taxonomy.KernelPanic},
		{"apsched: error: placement request failed for apid 123, resource unavailable", taxonomy.SoftwareALPS},
		{"watchdog: BUG: soft lockup - CPU#3 stuck for 23s", taxonomy.SoftwareOS},
		{"user application wrote something weird", taxonomy.Unclassified},
	}
	for _, tt := range tests {
		got, _ := cls.Classify(tt.msg)
		if got != tt.want {
			t.Errorf("Classify(%q) = %v, want %v", tt.msg, got, tt.want)
		}
	}
}

// TestRenderClassifyRoundTrip is the contract between the synthesizer's
// message templates and the classifier: every rendered variant of every
// category must classify back to exactly that category.
func TestRenderClassifyRoundTrip(t *testing.T) {
	cls := taxonomy.Default()
	rng := rand.New(rand.NewSource(99))
	const cname = "c12-3c2s7n1"
	for _, cat := range taxonomy.Categories() {
		for i := 0; i < 100; i++ {
			msg := errlog.Render(cat, cname, rng)
			got, sev := cls.Classify(msg)
			if got != cat {
				t.Fatalf("Render(%v) produced %q, classified as %v", cat, msg, got)
			}
			if cat.Benign() && sev > taxonomy.SevWarning {
				t.Fatalf("benign category %v classified with severity %v", cat, sev)
			}
			if !cat.Benign() && sev < taxonomy.SevWarning {
				t.Fatalf("non-benign category %v classified with severity %v", cat, sev)
			}
		}
	}
}

func TestClassifierRulesCopied(t *testing.T) {
	cls := taxonomy.Default()
	rules := cls.Rules()
	if len(rules) == 0 {
		t.Fatal("no rules")
	}
	want := rules[0].Category
	rules[0].Category = want + 1
	if got := cls.Rules()[0].Category; got != want {
		t.Errorf("Rules() exposes internal slice: rule 0 is now %v, was %v", got, want)
	}
}

// TestDefaultBuiltOnce: every caller shares one built-in classifier, so
// each Analyze, NewIncremental and RestoreIncremental without a rule file
// skips compiling 18 regexps and the automaton.
func TestDefaultBuiltOnce(t *testing.T) {
	if taxonomy.Default() != taxonomy.Default() {
		t.Error("Default() built a second classifier")
	}
}

// TestTagCoversAllGroups: Tag is a function of the group, so every category
// of a group logs under one non-empty tag. Tag's "kernel" default is a
// designed fallback, not a missing case; TestGroupTablesExhaustive is what
// fails when a group is added.
func TestTagCoversAllGroups(t *testing.T) {
	seen := map[string]bool{}
	for _, g := range taxonomy.Groups() {
		tag := ""
		for _, c := range taxonomy.Categories() {
			if c.Group() != g {
				continue
			}
			if tag == "" {
				tag = errlog.Tag(c)
			}
			if got := errlog.Tag(c); got != tag {
				t.Errorf("Tag(%v) = %q, want the %v group's tag %q", c, got, g, tag)
			}
		}
		if tag == "" {
			t.Errorf("group %v has no category, or an empty tag", g)
		}
		seen[tag] = true
	}
	if len(seen) < 4 {
		t.Errorf("expected several distinct tags, got %v", seen)
	}
	if errlog.Tag(taxonomy.Unclassified) == "" {
		t.Error("Tag(Unclassified) is empty")
	}
}
