package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"logdiver"
	"logdiver/internal/correlate"
	"logdiver/internal/fleet"
	"logdiver/internal/gen"
	"logdiver/internal/report"
	"logdiver/internal/store"
)

// Fleet batch analysis: `logdiver analyze -fleet-config fleet.conf` analyzes
// every configured shard from scratch (bounded concurrency), stamps each
// result with its machine name, folds them with store.Merge — the same
// merge the daemon's scatter-gather plane uses — and prints fleet tables.

// analyzeFleetConcurrency bounds how many shards analyze at once.
const analyzeFleetConcurrency = 4

// shardResult is one machine's from-scratch analysis.
type shardResult struct {
	name string
	snap *store.Snapshot
	err  error
}

func analyzeFleet(confPath string, opts logdiver.Options, defaultTZ, format string) error {
	cfg, err := fleet.LoadConfig(confPath)
	if err != nil {
		return err
	}
	results := make([]shardResult, len(cfg.Shards))
	sem := make(chan struct{}, analyzeFleetConcurrency)
	var wg sync.WaitGroup
	for i, sc := range cfg.Shards {
		wg.Add(1)
		go func(i int, sc fleet.ShardConfig) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			snap, err := analyzeShard(sc, opts, defaultTZ)
			results[i] = shardResult{name: sc.Name, snap: snap, err: err}
		}(i, sc)
	}
	wg.Wait()

	snaps := make([]*store.Snapshot, len(results))
	for i, r := range results {
		if r.err != nil {
			return fmt.Errorf("shard %q: %w", r.name, r.err)
		}
		snaps[i] = r.snap
	}
	return renderFleetTables(os.Stdout, format, results, store.Merge(snaps...))
}

// analyzeShard runs the full offline pipeline over one shard's archive
// directory. Missing archive files are treated as empty, matching the
// daemon tailer's semantics for archives that have not appeared yet.
func analyzeShard(sc fleet.ShardConfig, opts logdiver.Options, defaultTZ string) (*store.Snapshot, error) {
	top, err := topologyFor(sc.Machine)
	if err != nil {
		return nil, err
	}
	tzName := sc.TimeZone
	if tzName == "" {
		tzName = defaultTZ
	}
	loc, err := time.LoadLocation(tzName)
	if err != nil {
		return nil, fmt.Errorf("timezone: %w", err)
	}

	archives := logdiver.Archives{Location: loc}
	var closers []io.Closer
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()
	openInto := func(name string, dst *io.Reader) error {
		f, err := os.Open(filepath.Join(sc.ArchiveDir, name))
		if os.IsNotExist(err) {
			return nil
		}
		if err != nil {
			return err
		}
		closers = append(closers, f)
		*dst = f
		return nil
	}
	if err := openInto(store.AccountingFile, &archives.Accounting); err != nil {
		return nil, err
	}
	if err := openInto(store.ApsysFile, &archives.Apsys); err != nil {
		return nil, err
	}
	if err := openInto(store.SyslogFile, &archives.Syslog); err != nil {
		return nil, err
	}

	res, err := logdiver.Analyze(archives, top, opts)
	if err != nil {
		return nil, err
	}
	snap, err := store.Build(res, top, store.IngestStats{Rounds: 1}, time.Now())
	if err != nil {
		return nil, err
	}
	snap.Machine = sc.Name
	snap.Epoch = 1
	return snap, nil
}

// renderFleetTables prints the three fleet tables in the requested format.
func renderFleetTables(w io.Writer, format string, results []shardResult, merged *store.Snapshot) error {
	shards := report.Table{
		ID:      "F1",
		Title:   "Fleet shards",
		Columns: []string{"machine", "runs", "jobs", "events", "node-hours", "sys-fail"},
	}
	for _, r := range results {
		b := r.snap.Outcomes
		shards.AddRow(r.name,
			report.Count(b.Total),
			report.Count(r.snap.Result.NumJobs),
			report.Count(r.snap.Result.NumEvents),
			report.F1(b.TotalNodeHours),
			report.Pct(b.SystemFailureFraction()))
	}

	outcomes := report.Table{
		ID:      "F2",
		Title:   "Fleet outcome breakdown (merged)",
		Columns: []string{"outcome", "runs", "share", "node-hours"},
		Notes: []string{fmt.Sprintf("%d machines merged; %d runs total",
			len(results), merged.Outcomes.Total)},
	}
	order := []correlate.Outcome{
		correlate.OutcomeSuccess,
		correlate.OutcomeUserFailure,
		correlate.OutcomeWalltime,
		correlate.OutcomeSystemFailure,
	}
	for _, o := range order {
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

	for _, tbl := range []*report.Table{&shards, &outcomes, &categories} {
		var err error
		switch format {
		case "ascii":
			err = tbl.Render(w)
			fmt.Fprintln(w)
		case "md":
			err = tbl.RenderMarkdown(w)
		case "csv":
			fmt.Fprintf(w, "# %s: %s\n", tbl.ID, tbl.Title)
			err = tbl.RenderCSV(w)
		default:
			return fmt.Errorf("unknown format %q", format)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// generateFleet writes a K-machine fleet layout under out: one archive
// subdirectory per machine plus a ready-to-run fleet.conf with relative
// paths. Window w > 0 appends that production window to the existing
// archives instead of recreating them; only restricts the write to a single
// machine (the CI smoke test grows one shard that way).
func generateFleet(k, days int, seed int64, window int, only, out string, par int) error {
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
		cfg := m.Window(window)
		cfg.Parallelism = par
		ds, err := gen.Generate(cfg)
		if err != nil {
			return err
		}
		dir := filepath.Join(out, m.Name)
		if window == 0 {
			if err := ds.WriteDir(dir); err != nil {
				return err
			}
		} else if err := appendShardWindow(dir, ds); err != nil {
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

// appendShardWindow appends one dataset's archives (and truth) to the
// shard's existing files.
func appendShardWindow(dir string, ds *gen.Dataset) error {
	appendTo := func(name string, write func(io.Writer) error) error {
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if err := write(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := appendTo(store.AccountingFile, ds.WriteAccounting); err != nil {
		return err
	}
	if err := appendTo(store.ApsysFile, ds.WriteApsys); err != nil {
		return err
	}
	if err := appendTo(store.SyslogFile, ds.WriteErrorLog); err != nil {
		return err
	}
	return appendTo("truth.jsonl", ds.WriteTruth)
}
