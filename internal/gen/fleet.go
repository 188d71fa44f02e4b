package gen

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"logdiver/internal/alps"
	"logdiver/internal/syslogx"
	"logdiver/internal/wlm"
)

// Fleet fixtures: the multi-machine analogue of Small. A fleet is K small
// machines with distinct names, overlapping production windows and disjoint
// run/job identifier ranges, so per-machine analyses can be merged into one
// fleet view without identifier collisions. The merge oracle tests and the
// fleet daemon tests (TestDaemonFleetEndToEnd) build their shards from these
// fixtures.

const (
	// fleetApIDStride separates the aprun-id ranges of fleet machines.
	// Each machine owns a 2^24 apid block, subdivided per append window.
	fleetApIDStride = 1 << 24
	// fleetWindowApIDStride separates the apid ranges of successive append
	// windows within one machine's block.
	fleetWindowApIDStride = 1 << 20
	// fleetJobIDStride and fleetWindowJobIDStride do the same for batch
	// job ids (rendered as 1000000+base+n).
	fleetJobIDStride       = 1 << 20
	fleetWindowJobIDStride = 1 << 16
	// fleetStagger is the start-time offset between consecutive machines.
	// It is a fraction of a day, so every machine's window overlaps every
	// other's: the fleet is a concurrent field study, not a relay.
	fleetStagger = 6 * time.Hour
)

// FleetMachine is one machine of a synthesized fleet: a name (stable across
// windows, used as the shard name in fleet configs) and the generator
// configuration of its first production window.
type FleetMachine struct {
	Name   string
	Config Config
}

// Fleet returns K small-machine fixtures named m00, m01, ... with distinct
// seeds, staggered-but-overlapping start times and disjoint apid/job-id
// ranges. days is the span of each machine's base window; seed drives all
// randomness (machine i derives its own stream from seed+i).
func Fleet(k, days int, seed int64) []FleetMachine {
	machines := make([]FleetMachine, 0, k)
	for i := 0; i < k; i++ {
		cfg := Small(days)
		cfg.Seed = seed + int64(i)*1009
		cfg.Start = cfg.Start.Add(time.Duration(i) * fleetStagger)
		cfg.ApIDBase = uint64(i+1) * fleetApIDStride
		cfg.JobIDBase = (i + 1) * fleetJobIDStride
		machines = append(machines, FleetMachine{
			Name:   fmt.Sprintf("m%02d", i),
			Config: cfg,
		})
	}
	return machines
}

// Window returns the configuration of append window w for the machine.
// Window 0 is the base configuration; window w starts where window w-1
// ended and draws from a disjoint apid/job-id sub-range, so its archives
// can be appended to the base files and re-analyzed incrementally.
func (m FleetMachine) Window(w int) Config {
	cfg := m.Config
	cfg.Seed += int64(w) * 7919
	cfg.Start = cfg.Start.Add(time.Duration(w*cfg.Days) * 24 * time.Hour)
	cfg.ApIDBase += uint64(w) * fleetWindowApIDStride
	cfg.JobIDBase += w * fleetWindowJobIDStride
	return cfg
}

// TruthFile is the ground-truth sidecar's name inside an archive directory,
// beside the three archives.
const TruthFile = "truth.jsonl"

// WriteDir writes the dataset's archive directory — the three archives under
// the names the store Tailer and the daemon expect, plus TruthFile —
// creating dir if needed and replacing files already there.
func (d *Dataset) WriteDir(dir string) error { return d.writeDir(dir, os.O_TRUNC) }

// AppendDir appends the dataset's four files to those already in dir (a
// later production window growing an archive directory), creating any that
// are missing.
func (d *Dataset) AppendDir(dir string) error { return d.writeDir(dir, os.O_APPEND) }

// writeDir writes the four files of an archive directory, opening each with
// mode (os.O_TRUNC or os.O_APPEND).
func (d *Dataset) writeDir(dir string, mode int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("gen: %w", err)
	}
	for _, file := range []struct {
		name string
		emit func(io.Writer) error
	}{
		{wlm.ArchiveFile, d.WriteAccounting},
		{alps.ArchiveFile, d.WriteApsys},
		{syslogx.ArchiveFile, d.WriteErrorLog},
		{TruthFile, d.WriteTruth},
	} {
		f, err := os.OpenFile(filepath.Join(dir, file.name), os.O_CREATE|os.O_WRONLY|mode, 0o644)
		if err != nil {
			return fmt.Errorf("gen: %w", err)
		}
		if err := file.emit(f); err != nil {
			f.Close()
			return fmt.Errorf("gen: write %s: %w", file.name, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("gen: close %s: %w", file.name, err)
		}
	}
	return nil
}
