// Package errlog defines the typed error-event model shared by the log
// synthesizer and the analysis pipeline, together with Cray-style message
// templates for every taxonomy category. The synthesizer renders events to
// raw syslog text through these templates; the analysis pipeline parses the
// text back and re-derives the category with the taxonomy classifier, so
// the round trip genuinely exercises the classification rules.
package errlog

import (
	"fmt"
	"math/rand"
	"time"

	"logdiver/internal/machine"
	"logdiver/internal/taxonomy"
)

// SystemWide is the Node value of events that are not attributable to a
// single node (for example a Lustre MDT failover or an HSN quiesce).
const SystemWide machine.NodeID = -1

// Event is one error/failure record after classification.
type Event struct {
	// Time is the instant the event was logged.
	Time time.Time
	// Node is the dense node ID the event is attributed to, or SystemWide.
	Node machine.NodeID
	// Cname is the component name string as it appeared in the log
	// ("c1-3c2s7n1"), or a service host name for system-wide events.
	Cname string
	// Category and Severity come from the taxonomy classifier.
	Category taxonomy.Category
	Severity taxonomy.Severity
	// Message is the free-form message body.
	Message string
}

// IsSystemWide reports whether the event is machine-scoped rather than
// node-scoped.
func (e Event) IsSystemWide() bool { return e.Node == SystemWide }

// Tag returns the syslog program tag under which events of this category
// are logged by the system software stack. It is a pure function, safe for
// concurrent use; the parallel log-emission workers in internal/gen call it
// from multiple goroutines. (Render, by contrast, consumes an *rand.Rand
// and must stay on one goroutine per rng.)
func Tag(cat taxonomy.Category) string {
	switch cat.Group() {
	case taxonomy.GroupUnknown:
		return "kernel"
	case taxonomy.GroupHardware:
		return "HWERR"
	case taxonomy.GroupGPU:
		return "kernel"
	case taxonomy.GroupInterconnect:
		return "xtnlrd"
	case taxonomy.GroupFilesystem:
		return "kernel"
	case taxonomy.GroupNode:
		return "xtevent"
	case taxonomy.GroupSoftware:
		return "apsys"
	default:
		return "kernel"
	}
}

// Render produces a realistic raw message body for an event of the given
// category on the given component, choosing among several phrasings. The
// produced text is guaranteed (and tested) to classify back to the same
// category under taxonomy.Default().
func Render(cat taxonomy.Category, cname string, rng *rand.Rand) string {
	pick := func(variants ...string) string {
		return variants[rng.Intn(len(variants))]
	}
	switch cat {
	case taxonomy.Unclassified:
		return "unclassified event of unknown origin"
	case taxonomy.HardwareMemoryCE:
		return pick(
			fmt.Sprintf("Machine Check Exception: corrected DRAM error on %s bank %d DIMM %d syndrome 0x%04x",
				cname, rng.Intn(8), rng.Intn(16), rng.Intn(1<<16)),
			fmt.Sprintf("EDAC MC%d: corrected memory error on CS row %d (channel %d)",
				rng.Intn(4), rng.Intn(8), rng.Intn(2)),
		)
	case taxonomy.HardwareMemoryUE:
		return pick(
			fmt.Sprintf("Machine Check Exception: uncorrected DRAM error on %s bank %d addr 0x%012x",
				cname, rng.Intn(8), rng.Int63n(1<<44)),
			fmt.Sprintf("EDAC MC%d: uncorrectable ECC memory error, node halted", rng.Intn(4)),
		)
	case taxonomy.HardwareCPU:
		return pick(
			fmt.Sprintf("Machine Check Exception: L%d cache error, processor %d, status 0x%016x",
				1+rng.Intn(3), rng.Intn(32), rng.Int63()),
			fmt.Sprintf("Machine Check Exception: TLB error, bank %d, restart not possible", rng.Intn(6)),
		)
	case taxonomy.HardwarePower:
		return pick(
			fmt.Sprintf("HSS event: voltage fault on %s VRM %d, threshold exceeded", cname, rng.Intn(4)),
			fmt.Sprintf("power supply failure detected, cabinet feed %d, component %s", rng.Intn(2), cname),
		)
	case taxonomy.HardwareBlade:
		return pick(
			fmt.Sprintf("blade controller fault on %s: L0 unresponsive, heartbeat missed %d times",
				bladePrefix(cname), 3+rng.Intn(5)),
			fmt.Sprintf("mezzanine failure reported for %s, taking blade out of service", bladePrefix(cname)),
		)
	case taxonomy.GPUMemoryDBE:
		return pick(
			fmt.Sprintf("NVRM: Xid (PCI:0000:%02x:00): 48, Double-Bit ECC error detected, address 0x%08x",
				rng.Intn(256), rng.Int31()),
			"GPU double-bit ECC error in device memory, application cannot continue",
		)
	case taxonomy.GPUBusOff:
		return pick(
			fmt.Sprintf("NVRM: Xid (PCI:0000:%02x:00): 79, GPU has fallen off the bus.", rng.Intn(256)),
			"GPU has fallen off the bus; reboot required to restore device",
		)
	case taxonomy.GPUPageRetir:
		return pick(
			fmt.Sprintf("NVRM: retiring page 0x%x due to single-bit ECC error", rng.Int31()),
			fmt.Sprintf("GPU dynamic page retirement: %d pages pending", 1+rng.Intn(4)),
		)
	case taxonomy.InterconnectLink:
		return pick(
			fmt.Sprintf("HSN: LCB %d lane degrade on %s, link inactive, recovery initiated",
				rng.Intn(48), geminiPrefix(cname)),
			fmt.Sprintf("LCB lane failure detected on %s channel %d, retraining", geminiPrefix(cname), rng.Intn(8)),
		)
	case taxonomy.InterconnectRouting:
		return pick(
			fmt.Sprintf("HSN quiesce started: rerouting around failed link, %d routes affected", 1+rng.Intn(64)),
			"warm swap initiated: routing table update in progress",
			"rerouting complete, HSN unquiesced",
		)
	case taxonomy.FilesystemLBUG:
		return pick(
			fmt.Sprintf("LustreError: %d:0:(ldlm_lock.c:%d) LBUG", rng.Intn(1<<15), 100+rng.Intn(2000)),
			"LustreError: assertion failed, LBUG: forcing crash dump",
		)
	case taxonomy.FilesystemUnavail:
		return pick(
			fmt.Sprintf("LustreError: snx11003-OST%04x unavailable, in recovery", rng.Intn(1<<10)),
			fmt.Sprintf("Lustre: lost contact with OST%04x, client evicted by server", rng.Intn(1<<10)),
			"LustreError: MDT0000 inactive, failover in progress",
		)
	case taxonomy.FilesystemTimeout:
		return pick(
			fmt.Sprintf("Lustre: request x%d timed out after %ds, resending", rng.Int63(), 30+rng.Intn(270)),
			fmt.Sprintf("Lustre: slow reply from OST%04x, %ds late", rng.Intn(1<<10), 10+rng.Intn(120)),
		)
	case taxonomy.NodeRecovered:
		return pick(
			fmt.Sprintf("ec_node_available: node %s returned to service after repair", cname),
			fmt.Sprintf("warm boot complete, node %s available", cname),
		)
	case taxonomy.NodeHeartbeat:
		return pick(
			fmt.Sprintf("HSS alert: node heartbeat fault on %s, declaring node dead", cname),
			fmt.Sprintf("ec_node_failed: ALERT node_failed %s heartbeat fault", cname),
		)
	case taxonomy.KernelPanic:
		return pick(
			fmt.Sprintf("Kernel panic - not syncing: Fatal exception in interrupt on %s", cname),
			fmt.Sprintf("Oops: %04d [#1] SMP on node %s", rng.Intn(10000), cname),
		)
	case taxonomy.SoftwareALPS:
		return pick(
			fmt.Sprintf("apsched: error: placement request failed for apid %d, resource unavailable", rng.Int63n(1e7)),
			fmt.Sprintf("apinit: failure: protocol timeout on %s, killing application", cname),
			"apsys: error: exit processing timeout, forcing cleanup",
		)
	case taxonomy.SoftwareOS:
		return pick(
			fmt.Sprintf("watchdog: BUG: soft lockup - CPU#%d stuck for %ds", rng.Intn(32), 20+rng.Intn(60)),
			fmt.Sprintf("INFO: hung task: kthread %d blocked for more than %d seconds", rng.Intn(1<<15), 120),
			"BUG: scheduling while atomic: swapper",
		)
	default:
		return "unclassified event of unknown origin"
	}
}

// bladePrefix trims a node cname to its blade component ("c1-3c2s7").
func bladePrefix(cname string) string {
	if c, err := machine.ParseCname(cname); err == nil {
		return fmt.Sprintf("c%d-%dc%ds%d", c.Col, c.Row, c.Cage, c.Slot)
	}
	return cname
}

// geminiPrefix trims a node cname to its Gemini component ("c1-3c2s7g0").
func geminiPrefix(cname string) string {
	if c, err := machine.ParseCname(cname); err == nil {
		return fmt.Sprintf("c%d-%dc%ds%dg%d", c.Col, c.Row, c.Cage, c.Slot, c.Node/machine.NodesPerGemini)
	}
	return cname
}
