package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"logdiver"
	"logdiver/internal/correlate"
	"logdiver/internal/fleet"
	"logdiver/internal/gen"
	"logdiver/internal/report"
	"logdiver/internal/store"
)

// analyzeFleet is `logdiver analyze -fleet-config`: it runs the daemon's own
// runtime, a fleet.Manager over the config, until every shard's archives are
// drained (Manager.Drain), then prints the fleet tables from the manager's
// view. The shards' state dirs are ignored: a batch analysis reads and
// writes no state.
func analyzeFleet(confPath string, opts logdiver.Options, format string) error {
	cfg, err := fleet.LoadConfig(confPath)
	if err != nil {
		return err
	}
	for i := range cfg.Shards {
		cfg.Shards[i].StateDir = ""
	}
	mgr, err := fleet.NewManager(fleet.ManagerConfig{Config: cfg, Options: opts})
	if err != nil {
		return err
	}
	if err := mgr.Drain(context.Background()); err != nil {
		return err
	}
	v := mgr.View()
	return report.Write(os.Stdout, format, fleetTables(v.Shards, v.Merged))
}

// fleetTables builds F1 (one row per shard), F2 and F3 (the merged
// snapshot).
func fleetTables(shardStats []fleet.ShardStatus, merged *store.Snapshot) []*report.Table {
	shards := report.Table{
		ID:      "F1",
		Title:   "Fleet shards",
		Columns: []string{"machine", "runs", "jobs", "events", "node-hours", "sys-fail"},
	}
	for _, st := range shardStats {
		b := st.Snap.Outcomes
		shards.AddRow(st.Name,
			report.Count(b.Total),
			report.Count(st.Snap.Result.NumJobs),
			report.Count(st.Snap.Result.NumEvents),
			report.F1(b.TotalNodeHours),
			report.Pct(b.SystemFailureFraction()))
	}

	outcomes := report.Table{
		ID:      "F2",
		Title:   "Fleet outcome breakdown (merged)",
		Columns: []string{"outcome", "runs", "share", "node-hours"},
		Notes: []string{fmt.Sprintf("%d machines merged; %d runs total",
			len(shardStats), merged.Outcomes.Total)},
	}
	for _, o := range correlate.Outcomes() {
		var share float64
		if merged.Outcomes.Total > 0 {
			share = float64(merged.Outcomes.Counts[o]) / float64(merged.Outcomes.Total)
		}
		outcomes.AddRow(o.String(),
			report.Count(merged.Outcomes.Counts[o]),
			report.Pct(share),
			report.F1(merged.Outcomes.NodeHours[o]))
	}

	const topCategories = 10
	type catRow struct {
		name     string
		failures int
		lost     float64
	}
	var cats []catRow
	for _, c := range merged.Categories {
		cats = append(cats, catRow{c.Group.String() + "/" + c.Category.String(), c.Failures, c.NodeHoursLost})
	}
	sort.SliceStable(cats, func(i, j int) bool { return cats[i].failures > cats[j].failures })
	if len(cats) > topCategories {
		cats = cats[:topCategories]
	}
	categories := report.Table{
		ID:      "F3",
		Title:   "Fleet failure categories (merged, top by failures)",
		Columns: []string{"category", "failures", "node-hours lost"},
	}
	for _, c := range cats {
		categories.AddRow(c.name, report.Count(c.failures), report.F1(c.lost))
	}

	return []*report.Table{&shards, &outcomes, &categories}
}

// generateFleet writes a K-machine fleet layout under out: one archive
// subdirectory per machine plus a ready-to-run fleet.conf with relative
// paths. Window w > 0 appends that production window to the existing
// archives instead of recreating them; only restricts the write to a single
// machine (which grows one shard of a running fleet daemon).
func generateFleet(k, days int, seed int64, window int, only, out string) error {
	machines := gen.Fleet(k, days, seed)
	conf := fleet.Config{}
	var wrote []string
	for _, m := range machines {
		conf.Shards = append(conf.Shards, fleet.ShardConfig{
			Name:       m.Name,
			ArchiveDir: m.Name,
			Machine:    fleet.MachineSmall,
			StateDir:   filepath.Join("state", m.Name),
		})
		if only != "" && m.Name != only {
			continue
		}
		ds, err := gen.Generate(m.Window(window))
		if err != nil {
			return err
		}
		write := ds.WriteDir
		if window != 0 {
			write = ds.AppendDir
		}
		if err := write(filepath.Join(out, m.Name)); err != nil {
			return err
		}
		wrote = append(wrote, m.Name)
	}
	if only != "" && len(wrote) == 0 {
		return fmt.Errorf("generate: -fleet-only %q names no machine of a %d-machine fleet", only, k)
	}
	if window == 0 && only == "" {
		if err := os.WriteFile(filepath.Join(out, "fleet.conf"), []byte(conf.String()), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "wrote fleet window %d for %v under %s\n", window, wrote, out)
	return nil
}
