package persist

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// RulesBuiltin is the Rules identity of the compiled-in taxonomy.
const RulesBuiltin = "builtin"

// Fingerprint identifies the configuration an analysis state was built
// under. Two runs with equal fingerprints produce byte-identical analyses
// of the same archives, so restoring across equal fingerprints is sound.
// Parallelism is deliberately absent: the pipeline's results are
// parallelism-invariant (pinned by the differential tests), so an operator
// may resize the worker pool across a restart without losing the state.
type Fingerprint struct {
	// Machine is the machine model name (e.g. "bluewaters").
	Machine string `json:"machine"`
	// Nodes is the topology's node count, a cheap structural check that
	// the named model still means the same machine.
	Nodes int `json:"nodes"`
	// ParseMode is the malformed-input policy ("lenient" or "strict").
	// It shapes assembler state, so it must match to resume.
	ParseMode string `json:"parse_mode"`
	// Rules identifies the classifier rule set: RulesBuiltin, or
	// "sha256:<hex>" of the rule file bytes (HashRules).
	Rules string `json:"rules"`
}

// HashRules returns the Rules identity of a custom rule file's bytes.
func HashRules(b []byte) string {
	sum := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// Diff compares the persisted fingerprint against the running
// configuration and returns a human-readable description of the first
// mismatch, or "" when the configurations are interchangeable.
func (f Fingerprint) Diff(cur Fingerprint) string {
	switch {
	case f.Machine != cur.Machine:
		return fmt.Sprintf("machine: state built for %q, running %q", f.Machine, cur.Machine)
	case f.Nodes != cur.Nodes:
		return fmt.Sprintf("topology: state built for %d nodes, running %d", f.Nodes, cur.Nodes)
	case f.ParseMode != cur.ParseMode:
		return fmt.Sprintf("parse mode: state built under %q, running %q", f.ParseMode, cur.ParseMode)
	case f.Rules != cur.Rules:
		return fmt.Sprintf("classifier rules: state built with %s, running %s", f.Rules, cur.Rules)
	}
	return ""
}
