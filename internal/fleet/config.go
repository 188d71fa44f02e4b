// Package fleet is the daemon's runtime, for one machine (a fleet of one
// shard, which is what `logdiverd -data-dir` builds) or many: one
// incremental pipeline + tailer/syncer per configured machine shard
// (the informer-per-target idiom), each with its own epoch sequence and
// persisted state, folded after every sync round into a single merged
// snapshot (store.Merge) carrying the composite fleet epoch vector. The
// manager degrades gracefully — a failed shard keeps its last good
// snapshot and the merged view is marked partial — so one machine's
// outage never takes down the fleet's query plane.
package fleet

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"logdiver/internal/machine"
	"logdiver/internal/parse"
)

// Shard machine profiles understood by the config parser, mirroring the
// daemon's -machine flag.
const (
	MachineBlueWaters = "bluewaters"
	MachineSmall      = "small"
)

// Topology builds the topology a machine profile names: the one mapping
// behind every -machine flag and every shard's machine key.
func Topology(profile string) (*machine.Topology, error) {
	switch profile {
	case MachineBlueWaters:
		return machine.New(machine.BlueWaters())
	case MachineSmall:
		return machine.New(machine.Small())
	default:
		return nil, fmt.Errorf("unknown machine profile %q (want %s or %s)", profile, MachineBlueWaters, MachineSmall)
	}
}

// ShardConfig declares one machine shard.
type ShardConfig struct {
	// Name is the shard's fleet-unique machine name (the ?machine= key
	// and the Prometheus label value).
	Name string
	// ArchiveDir is the directory the shard's tailer follows.
	ArchiveDir string
	// Machine selects the topology profile: MachineBlueWaters (default)
	// or MachineSmall.
	Machine string
	// StateDir, when set, enables crash-safe persisted state for this
	// shard (one state.ldv per shard, reusing internal/persist).
	StateDir string
}

// Config is a parsed fleet configuration: the declarative list of shards a
// manager runs.
type Config struct {
	Shards []ShardConfig
}

// ParseConfig parses the declarative fleet config format:
//
//	# comment (also ';')
//	[shard m00]
//	archive-dir = /srv/logs/m00
//	machine = small
//	state-dir = /var/lib/logdiver/m00
//
// One [shard NAME] section per machine; archive-dir is required, the rest
// optional. Relative paths are left as-is (LoadConfig resolves them against
// the config file's directory). Shards are returned sorted by name.
func ParseConfig(text string) (*Config, error) {
	secs, err := parse.Sections(text, "fleet", "shard", "shards")
	if err != nil {
		return nil, err
	}
	cfg := &Config{Shards: make([]ShardConfig, len(secs))}
	for i, sec := range secs {
		sh := &cfg.Shards[i]
		*sh = ShardConfig{Name: sec.Name, Machine: MachineBlueWaters}
		for _, kv := range sec.Keys {
			switch kv.Key {
			case "archive-dir":
				sh.ArchiveDir = kv.Value
			case "machine":
				if kv.Value != MachineBlueWaters && kv.Value != MachineSmall {
					return nil, fmt.Errorf("fleet: line %d: unknown machine profile %q (want %s or %s)", kv.Line, kv.Value, MachineBlueWaters, MachineSmall)
				}
				sh.Machine = kv.Value
			case "state-dir":
				sh.StateDir = kv.Value
			default:
				return nil, fmt.Errorf("fleet: line %d: unknown key %q", kv.Line, kv.Key)
			}
		}
		if sh.ArchiveDir == "" {
			return nil, fmt.Errorf("fleet: shard %q: archive-dir is required", sh.Name)
		}
	}
	sort.Slice(cfg.Shards, func(i, j int) bool { return cfg.Shards[i].Name < cfg.Shards[j].Name })
	return cfg, nil
}

// LoadConfig reads and parses a fleet config file, resolving relative
// archive-dir and state-dir paths against the file's directory so a config
// can travel with its data.
func LoadConfig(path string) (*Config, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	cfg, err := ParseConfig(string(b))
	if err != nil {
		return nil, err
	}
	base := filepath.Dir(path)
	for i := range cfg.Shards {
		sh := &cfg.Shards[i]
		if !filepath.IsAbs(sh.ArchiveDir) {
			sh.ArchiveDir = filepath.Join(base, sh.ArchiveDir)
		}
		if sh.StateDir != "" && !filepath.IsAbs(sh.StateDir) {
			sh.StateDir = filepath.Join(base, sh.StateDir)
		}
	}
	return cfg, nil
}

// String renders the config back into the format ParseConfig accepts; a
// parse → render → parse round trip is the identity (the fuzz harness pins
// that).
func (c *Config) String() string {
	var b strings.Builder
	for i, sh := range c.Shards {
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "[shard %s]\n", sh.Name)
		fmt.Fprintf(&b, "archive-dir = %s\n", sh.ArchiveDir)
		fmt.Fprintf(&b, "machine = %s\n", sh.Machine)
		if sh.StateDir != "" {
			fmt.Fprintf(&b, "state-dir = %s\n", sh.StateDir)
		}
	}
	return b.String()
}
