// Package taxonomy defines the error taxonomy used to categorize raw log
// messages, mirroring the category structure a Cray XE/XK field study works
// with: machine-check (memory/CPU) hardware errors, power and blade faults,
// GPU errors on hybrid nodes, Gemini high-speed-network errors, Lustre
// filesystem errors, node heartbeat failures and kernel panics, and
// system-software errors. A rule-based Classifier maps free-form message
// text onto (Category, Severity) pairs; the rules are anchored on the
// message shapes produced by the Cray system software and reproduced by
// internal/errlog.
package taxonomy

import (
	"regexp"
	"strconv"
	"sync"
)

// Category identifies a leaf of the error taxonomy. The zero value
// Unclassified is the meaningful default for messages no rule matches.
type Category int

// Taxonomy leaves. Grouped by the top-level classes used in the analysis.
const (
	Unclassified Category = iota

	// Hardware (CPU/memory/power).
	HardwareMemoryCE // corrected memory error (machine check, DIMM)
	HardwareMemoryUE // uncorrected memory error
	HardwareCPU      // processor machine check (cache, TLB)
	HardwarePower    // voltage fault / power supply
	HardwareBlade    // blade-level mezzanine or controller fault

	// GPU (XK hybrid nodes only).
	GPUMemoryDBE // double-bit ECC error in GPU memory
	GPUBusOff    // GPU has fallen off the bus / Xid fatal
	GPUPageRetir // single-bit ECC page retirement (benign)

	// Interconnect (Gemini HSN).
	InterconnectLink    // LCB lane failure / link inactive
	InterconnectRouting // routing table / warm swap / HSN quiesce

	// Filesystem (Lustre).
	FilesystemLBUG    // Lustre kernel bug assertion
	FilesystemUnavail // OST/MDT unavailable, client eviction
	FilesystemTimeout // request timeouts, slow response

	// Node liveness.
	NodeHeartbeat // heartbeat fault declared by the HSS
	KernelPanic   // kernel panic / LBUG-induced crash
	NodeRecovered // node returned to service after repair (informational)

	// System software.
	SoftwareALPS // ALPS/apsched/apinit errors
	SoftwareOS   // other OS-level software errors

	numCategories // sentinel; keep last
)

var categoryNames = map[Category]string{
	Unclassified:        "UNCLASSIFIED",
	HardwareMemoryCE:    "HW_MEM_CE",
	HardwareMemoryUE:    "HW_MEM_UE",
	HardwareCPU:         "HW_CPU",
	HardwarePower:       "HW_POWER",
	HardwareBlade:       "HW_BLADE",
	GPUMemoryDBE:        "GPU_DBE",
	GPUBusOff:           "GPU_BUS",
	GPUPageRetir:        "GPU_PAGE_RETIRE",
	InterconnectLink:    "HSN_LINK",
	InterconnectRouting: "HSN_ROUTING",
	FilesystemLBUG:      "FS_LBUG",
	FilesystemUnavail:   "FS_UNAVAIL",
	FilesystemTimeout:   "FS_TIMEOUT",
	NodeHeartbeat:       "NODE_HEARTBEAT",
	KernelPanic:         "KERNEL_PANIC",
	NodeRecovered:       "NODE_RECOVERED",
	SoftwareALPS:        "SW_ALPS",
	SoftwareOS:          "SW_OS",
}

// String returns the stable uppercase mnemonic for the category.
func (c Category) String() string {
	if s, ok := categoryNames[c]; ok {
		return s
	}
	return "CATEGORY(" + strconv.Itoa(int(c)) + ")"
}

// ParseCategory resolves a mnemonic produced by String.
func ParseCategory(s string) (Category, bool) {
	for c, name := range categoryNames {
		if name == s {
			return c, true
		}
	}
	return Unclassified, false
}

// Categories returns all defined categories (excluding Unclassified) in
// declaration order.
func Categories() []Category {
	out := make([]Category, 0, int(numCategories)-1)
	for c := Category(1); c < numCategories; c++ {
		out = append(out, c)
	}
	return out
}

// Group is the top-level class of a category, used for the headline
// breakdowns (which subsystem caused the failure).
type Group int

// Top-level groups.
const (
	GroupUnknown Group = iota
	GroupHardware
	GroupGPU
	GroupInterconnect
	GroupFilesystem
	GroupNode
	GroupSoftware

	numGroups // sentinel; keep last
)

var groupNames = map[Group]string{
	GroupUnknown:      "UNKNOWN",
	GroupHardware:     "HARDWARE",
	GroupGPU:          "GPU",
	GroupInterconnect: "INTERCONNECT",
	GroupFilesystem:   "FILESYSTEM",
	GroupNode:         "NODE",
	GroupSoftware:     "SOFTWARE",
}

// String returns the group mnemonic.
func (g Group) String() string {
	if s, ok := groupNames[g]; ok {
		return s
	}
	return "GROUP(" + strconv.Itoa(int(g)) + ")"
}

// Groups returns all defined groups (excluding GroupUnknown).
func Groups() []Group {
	return []Group{GroupHardware, GroupGPU, GroupInterconnect, GroupFilesystem, GroupNode, GroupSoftware}
}

// Group returns the top-level class of the category.
func (c Category) Group() Group {
	switch c {
	case Unclassified:
		return GroupUnknown
	case HardwareMemoryCE, HardwareMemoryUE, HardwareCPU, HardwarePower, HardwareBlade:
		return GroupHardware
	case GPUMemoryDBE, GPUBusOff, GPUPageRetir:
		return GroupGPU
	case InterconnectLink, InterconnectRouting:
		return GroupInterconnect
	case FilesystemLBUG, FilesystemUnavail, FilesystemTimeout:
		return GroupFilesystem
	case NodeHeartbeat, KernelPanic, NodeRecovered:
		return GroupNode
	case SoftwareALPS, SoftwareOS:
		return GroupSoftware
	default:
		return GroupUnknown
	}
}

// Severity grades how disruptive an event is to the applications running on
// the affected component.
type Severity int

// Severity levels. Benign events (corrected errors, page retirements) are
// logged in volume on a healthy machine; only SevError and SevCritical
// events can terminate an application.
const (
	SevInfo Severity = iota + 1
	SevWarning
	SevError
	SevCritical

	numSeverities // sentinel; keep last
)

// String returns the severity mnemonic.
func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "INFO"
	case SevWarning:
		return "WARN"
	case SevError:
		return "ERROR"
	case SevCritical:
		return "CRIT"
	default:
		return "SEVERITY(" + strconv.Itoa(int(s)) + ")"
	}
}

// Benign reports whether events of this category never terminate an
// application by themselves (they matter for error-rate characterization,
// not for failure attribution).
func (c Category) Benign() bool {
	switch c {
	case HardwareMemoryCE, GPUPageRetir, NodeRecovered:
		return true
	default:
		return false
	}
}

// Rule maps a message pattern to a category and severity. Rules are applied
// in order; the first match wins.
type Rule struct {
	Name     string
	Pattern  *regexp.Regexp
	Category Category
	Severity Severity
	// Line is the 1-based rule-file line the rule was read from, so lint
	// diagnostics can point back into the file; 0 for rules built in memory.
	Line int
}

// Classifier applies an ordered rule list to raw message text: ClassifyBytes
// (prefilter.go) returns the category and severity of the first rule whose
// pattern matches. Its regexp-only reference, Classify, lives in
// reference_test.go.
//
// A Classifier is safe for concurrent use by multiple goroutines:
// ClassifyBytes only reads the rule list and the automaton, takes its scratch
// from a pool, and regexp.Regexp is documented as goroutine-safe. The
// parallel ingestion workers in internal/core share one instance.
type Classifier struct {
	rules []Rule
	// m is the one automaton compiled from every rule's literal filter
	// (see prefilter.go, scan.go). Built once at construction; read-only
	// afterwards.
	m *matcher
}

// NewClassifier builds a classifier from rules. The rule slice is copied.
func NewClassifier(rules []Rule) *Classifier {
	c := &Classifier{rules: make([]Rule, len(rules))}
	copy(c.rules, rules)
	filters := make([]*prefilter, len(c.rules))
	for i := range c.rules {
		filters[i] = filterOf(c.rules[i].Pattern.String())
	}
	c.m = newMatcher(filters)
	return c
}

// Default returns the classifier with the built-in Cray-style rule set. It
// is built once and shared: a Classifier has no mutators.
func Default() *Classifier { return builtin() }

var builtin = sync.OnceValue(func() *Classifier { return NewClassifier(defaultRules()) })

// Rules returns a copy of the classifier's rule list.
func (c *Classifier) Rules() []Rule {
	out := make([]Rule, len(c.rules))
	copy(out, c.rules)
	return out
}

// defaultRules encodes the message shapes emitted by the Cray system
// software stack (HSS event router, xtconsole, Lustre, the NVIDIA driver)
// as reproduced by internal/errlog. Order matters: more specific patterns
// come first.
func defaultRules() []Rule {
	mk := func(name, pat string, cat Category, sev Severity) Rule {
		return Rule{Name: name, Pattern: regexp.MustCompile(pat), Category: cat, Severity: sev}
	}
	return []Rule{
		// Machine checks. Uncorrected before corrected: both mention
		// "Machine Check".
		mk("mce-uncorrected", `(?i)machine check.*uncorrected|uncorrect(ed|able).*(dram|memory|ecc)`, HardwareMemoryUE, SevCritical),
		mk("mce-corrected", `(?i)machine check.*corrected|correct(ed|able).*(dram|memory|ecc)`, HardwareMemoryCE, SevWarning),
		mk("mce-cpu", `(?i)machine check.*(cache|tlb|bus|processor)`, HardwareCPU, SevCritical),

		// Power / blade.
		mk("voltage-fault", `(?i)voltage fault|vrm fault|power supply fail`, HardwarePower, SevCritical),
		mk("blade-fault", `(?i)(blade|mezzanine|l0c?) (controller )?(fault|failure|unresponsive)`, HardwareBlade, SevCritical),

		// GPU. Double-bit before generic Xid.
		mk("gpu-dbe", `(?i)double[- ]bit (ecc )?error|dbe.*gpu|xid.*48`, GPUMemoryDBE, SevCritical),
		mk("gpu-bus", `(?i)gpu.*(fallen off the bus|has fallen off)|xid.*79`, GPUBusOff, SevCritical),
		mk("gpu-page-retire", `(?i)(page retirement|retiring page)|dynamic page (retirement|blacklist)`, GPUPageRetir, SevInfo),

		// Gemini interconnect.
		mk("hsn-lcb", `(?i)lcb.*(lane (degrade|failure)|inactive)|link inactive|channel fail`, InterconnectLink, SevError),
		mk("hsn-route", `(?i)(hsn|network) quiesce|warm swap|rerout(e|ing) (started|complete)|routing table`, InterconnectRouting, SevError),

		// Lustre.
		mk("fs-lbug", `(?i)lbug|lustre.*assertion fail`, FilesystemLBUG, SevCritical),
		mk("fs-unavail", `(?i)(ost|mdt)[0-9a-fx-]*.*(unavailable|inactive)|client.*evict|lost contact with (ost|mds)`, FilesystemUnavail, SevError),
		mk("fs-timeout", `(?i)lustre.*(timed? ?out|slow reply)|request.*timed out.*lustre`, FilesystemTimeout, SevWarning),

		// Node liveness. Recovery before heartbeat: both mention "node".
		mk("node-recovered", `(?i)node (available|returned to service)|warm boot complete|ec_node_(available|up)`, NodeRecovered, SevInfo),
		mk("node-heartbeat", `(?i)heartbeat fault|node heartbeat.*(fault|stopped)|alert.*node_failed`, NodeHeartbeat, SevCritical),
		mk("kernel-panic", `(?i)kernel panic|oops:|fatal exception`, KernelPanic, SevCritical),

		// System software.
		mk("sw-alps", `(?i)(apsched|apinit|apsys|alps).*(error|fail|timeout)`, SoftwareALPS, SevError),
		mk("sw-os", `(?i)(segfault in kernel|scheduling while atomic|hung task|watchdog.*(soft lockup|hard lockup))`, SoftwareOS, SevError),
	}
}
