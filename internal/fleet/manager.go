package fleet

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"logdiver/internal/core"
	"logdiver/internal/machine"
	"logdiver/internal/parse"
	"logdiver/internal/persist"
	"logdiver/internal/store"
)

// Restore describes one shard's boot provenance: whether it warm-started
// from persisted state, rebuilt cold, or fell back to cold after an
// unusable state file.
type Restore struct {
	Mode    string    `json:"mode"`
	Detail  string    `json:"detail,omitempty"`
	Epoch   uint64    `json:"epoch,omitempty"`
	SavedAt time.Time `json:"saved_at,omitempty"`
}

// ManagerConfig wires a Manager.
type ManagerConfig struct {
	// Config is the parsed fleet declaration. Required.
	Config *Config
	// Options follows core.Analyze semantics and applies to every shard
	// pipeline (per-shard knobs are topology, archives and state — policy
	// is fleet-wide).
	Options core.Options
	// RulesID is the classifier-rules identity recorded in per-shard state
	// fingerprints (persist.RulesBuiltin when empty).
	RulesID string
	// StateInterval is the minimum interval between periodic per-shard
	// state persists; <= 0 selects one minute.
	StateInterval time.Duration
	// Now injects the clock (time.Now when nil); tests pin it.
	Now func() time.Time
	// Logf receives warning lines (state-restore fallbacks, persist
	// failures), from several goroutines at once while NewManager restores
	// the shards. Nil discards them.
	Logf func(format string, args ...any)
}

// ShardStatus is one shard's health as of the last published View.
type ShardStatus struct {
	// Name is the shard's machine name.
	Name string
	// Status is "ok" (serving), "failed" (last sync round errored; the
	// last good snapshot, if any, is still merged and served) or
	// "waiting" (no snapshot yet).
	Status string
	// Epoch is the shard's own install epoch (0 before the first).
	Epoch uint64
	// Runs counts the shard's attributed runs.
	Runs int
	// Snap is the shard's latest snapshot; nil before the first install.
	Snap *store.Snapshot
	// LastSync is the shard's last ingestion poll heartbeat.
	LastSync time.Time
	// LastError is the most recent sync error ("" when healthy).
	LastError string
	// Restore is the shard's boot provenance.
	Restore Restore
}

// View is one consistent scatter-gather state: the merged fleet snapshot
// plus the per-shard statuses it was folded from. Views are immutable and
// published atomically; Merged carries the composite epoch vector, so no
// reader can ever combine aggregates from one vector with runs from
// another.
type View struct {
	// Merged is the fleet snapshot (nil until any shard has synced).
	Merged *store.Snapshot
	// FleetEpoch is Merged's install epoch in the fleet store.
	FleetEpoch uint64
	// Partial reports that at least one configured shard is failed or has
	// no snapshot: the fleet serves, but from an incomplete machine set.
	Partial bool
	// Shards holds per-shard status, sorted by name.
	Shards []ShardStatus
}

// ShardRound reports one shard's part of a sync round.
type ShardRound struct {
	Name      string
	Installed bool
	Epoch     uint64
	Err       error
}

// Round reports one fleet sync round.
type Round struct {
	Shards []ShardRound
	// Installed reports whether the round published a new merged
	// snapshot; FleetEpoch is its epoch (or the current one when not).
	Installed  bool
	FleetEpoch uint64
}

// shard is one machine's runtime: its own tailer+syncer+pipeline+store,
// epoch sequence and persisted state. Mutable fields are owned by the
// manager's single driver goroutine; readers see them only through
// published Views.
type shard struct {
	cfg       ShardConfig
	top       *machine.Topology
	store     *store.Store
	sy        *store.Syncer
	statePath string
	fp        persist.Fingerprint
	restore   Restore
	// fleetEpoch is the fleet epoch recorded in the restored state file.
	fleetEpoch uint64

	failed  bool
	lastErr string
	// lastPersist is when the state file last held the pipeline's state:
	// the last save, or the load of a warm boot. Zero until then, so a cold
	// boot saves on its first round.
	lastPersist time.Time
}

// syncConcurrency bounds how many shards restore at once in NewManager and
// ingest at once during a sync round.
const syncConcurrency = 4

// Manager runs one incremental pipeline per configured shard and folds the
// results into a single fleet view after every round. One goroutine drives
// SyncRound/PersistAll; any number of readers call View and FleetStore.
type Manager struct {
	shards []*shard // sorted by name (Config sorts)
	fleet  *store.Store
	view   atomic.Pointer[View]
	sem    chan struct{}
	every  time.Duration
	now    func() time.Time
	logf   func(format string, args ...any)
}

// NewManager builds the per-shard runtimes, warm-restoring each shard that
// has usable persisted state: an unusable state file degrades that shard to
// a cold rebuild in lenient mode and is a construction error in strict mode,
// naming the first such shard in configuration order. Shards load and
// restore concurrently, syncConcurrency at a time.
func NewManager(cfg ManagerConfig) (*Manager, error) {
	if cfg.Config == nil || len(cfg.Config.Shards) == 0 {
		return nil, fmt.Errorf("fleet: no shards configured")
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	every := cfg.StateInterval
	if every <= 0 {
		every = time.Minute
	}
	rulesID := cfg.RulesID
	if rulesID == "" {
		rulesID = persist.RulesBuiltin
	}

	m := &Manager{
		fleet: store.New(),
		sem:   make(chan struct{}, syncConcurrency),
		every: every,
		now:   now,
		logf:  logf,
	}
	m.shards = make([]*shard, len(cfg.Config.Shards))
	errs := make([]error, len(cfg.Config.Shards))
	var wg sync.WaitGroup
	for i, sc := range cfg.Config.Shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.sem <- struct{}{}
			defer func() { <-m.sem }()
			m.shards[i], errs[i] = newShard(sc, cfg.Options, rulesID, now, logf)
		}()
	}
	wg.Wait()
	var epochSum, seed uint64
	for i, sh := range m.shards {
		if errs[i] != nil {
			return nil, fmt.Errorf("fleet: shard %q: %w", cfg.Config.Shards[i].Name, errs[i])
		}
		epochSum += sh.restore.Epoch
		seed = max(seed, sh.fleetEpoch)
	}
	// Seed the fleet epoch so fleet ETags stay monotonic across restarts of
	// these state dirs. The sum of the restored shard epochs is not enough
	// on its own: a merged install triggered by a bare Partial flip
	// advances the fleet epoch and no shard's, so every shard also persists
	// the fleet epoch it last saw and the seed is the larger of the two
	// (the sum still covers state files written before that field existed).
	// The guarantee is as strong as the newest persisted shard state: a
	// flip installed after the last persist (a shard still failed at
	// shutdown is never persisted) is not remembered.
	if seed = max(seed, epochSum); seed > 0 {
		if err := m.fleet.Restore(seed); err != nil {
			return nil, err
		}
	}
	m.publish()
	return m, nil
}

// newShard builds one shard runtime, restoring persisted state when usable.
func newShard(sc ShardConfig, opts core.Options, rulesID string, now func() time.Time, logf func(string, ...any)) (*shard, error) {
	profile := sc.Machine
	if profile == "" {
		profile = MachineBlueWaters
	}
	top, err := Topology(profile)
	if err != nil {
		return nil, err
	}

	sh := &shard{
		cfg:     sc,
		top:     top,
		store:   store.New(),
		restore: Restore{Mode: "cold", Detail: "persistence disabled (no state-dir)"},
	}
	var resume *store.SyncerState
	if sc.StateDir != "" {
		if err := os.MkdirAll(sc.StateDir, 0o755); err != nil {
			return nil, fmt.Errorf("state dir: %w", err)
		}
		sh.statePath = filepath.Join(sc.StateDir, persist.StateFile)
		sh.fp = persist.Fingerprint{
			Machine:   profile,
			Nodes:     top.NumNodes(),
			ParseMode: opts.ParseMode.String(),
			Rules:     rulesID,
		}
		if resume, err = sh.loadState(opts, logf); err != nil {
			return nil, err
		}
		if resume != nil {
			// A warm boot counts as a save: the file holds the pipeline as
			// restored, so the state interval runs from the load.
			sh.lastPersist = now()
		}
	}
	if sh.restore.Epoch > 0 {
		if err := sh.store.Restore(sh.restore.Epoch); err != nil {
			return nil, err
		}
	}
	syCfg := store.SyncerConfig{
		Tailer:   store.NewTailer(sc.ArchiveDir),
		Store:    sh.store,
		Topology: top,
		Options:  opts,
		Machine:  sc.Name,
		Resume:   resume,
		Now:      now,
	}
	sh.sy, err = store.NewSyncer(syCfg)
	if err != nil && resume != nil {
		// The file was structurally sound but its state failed restore
		// validation: same policy as a corrupt file.
		if strictMode(opts) {
			return nil, fmt.Errorf("state restore: %s: %w (strict mode refuses to guess: delete the state file to rebuild cold)", sh.statePath, err)
		}
		logf("fleet: shard %s: state restore failed; rebuilding cold: %v", sc.Name, err)
		sh.restore = Restore{Mode: "cold-fallback", Detail: err.Error(), Epoch: sh.restore.Epoch}
		sh.lastPersist = time.Time{}
		syCfg.Resume = nil
		syCfg.Tailer = store.NewTailer(sc.ArchiveDir)
		sh.sy, err = store.NewSyncer(syCfg)
	}
	if err != nil {
		return nil, err
	}
	return sh, nil
}

// strictMode reports whether the fleet runs under the strict parse policy.
func strictMode(opts core.Options) bool { return opts.ParseMode == parse.Strict }

// loadState reads the shard's state file and decides its boot mode (left
// in sh.restore). A missing file is a normal cold start. Any other failure —
// structural corruption, version skew, a configuration fingerprint
// mismatch — degrades to a cold rebuild in lenient mode and is an error
// naming the file and the reason in strict mode. Whenever the file loads,
// its epochs are kept even if the pipeline state is rejected: clients rely
// on epochs never going backward across a restart of the same state dir.
func (sh *shard) loadState(opts core.Options, logf func(string, ...any)) (*store.SyncerState, error) {
	ld, err := persist.Load(sh.statePath)
	if errors.Is(err, fs.ErrNotExist) {
		sh.restore = Restore{Mode: "cold", Detail: "no state file yet"}
		return nil, nil
	}
	if ld != nil {
		sh.fleetEpoch = ld.FleetEpoch
		if diff := ld.Fingerprint.Diff(sh.fp); diff != "" {
			err = fmt.Errorf("%s: configuration changed since the state was written: %s", sh.statePath, diff)
		}
	}
	if err != nil {
		if strictMode(opts) {
			return nil, fmt.Errorf("state restore: %w (strict mode refuses to guess: delete the state file to rebuild cold)", err)
		}
		logf("fleet: shard %s: state restore failed; rebuilding cold: %v", sh.cfg.Name, err)
		sh.restore = Restore{Mode: "cold-fallback", Detail: err.Error()}
		if ld != nil {
			sh.restore.Epoch = ld.Epoch
		}
		return nil, nil
	}
	sh.restore = Restore{Mode: "warm", Epoch: ld.Epoch, SavedAt: ld.SavedAt}
	return ld.Syncer, nil
}

// FleetStore returns the store the merged fleet snapshots are installed
// into; it is the serving layer's store.
func (m *Manager) FleetStore() *store.Store { return m.fleet }

// View returns the latest published fleet view.
func (m *Manager) View() *View { return m.view.Load() }

// Machines returns the configured shard names in order.
func (m *Manager) Machines() []string {
	names := make([]string, len(m.shards))
	for i, sh := range m.shards {
		names[i] = sh.cfg.Name
	}
	return names
}

// SyncRound drives one ingestion round on every shard (bounded
// concurrency), persists shards on their interval, folds the results and
// publishes a new View. One goroutine must own the SyncRound/PersistAll
// sequence; a shard whose round fails is marked failed and keeps serving
// its last good snapshot until a later round succeeds.
func (m *Manager) SyncRound(ctx context.Context) Round {
	return m.syncRound(ctx, (*store.Syncer).Sync)
}

// Drain is a batch analysis's one round: every shard ingests its archives
// to their end, unterminated last lines included (store.Syncer.SyncAll),
// and the fleet installs one merged snapshot. The first failing shard's
// error, naming it, is returned. It is the Manager's last round: the shards
// keep their snapshots but release their pipelines, so a later round fails
// and their state cannot be persisted.
func (m *Manager) Drain(ctx context.Context) error {
	for _, sr := range m.syncRound(ctx, (*store.Syncer).SyncAll).Shards {
		if sr.Err != nil {
			return fmt.Errorf("shard %q: %w", sr.Name, sr.Err)
		}
	}
	return nil
}

// syncRound runs a round in which every shard's syncer runs syncShard.
func (m *Manager) syncRound(ctx context.Context, syncShard func(*store.Syncer) (bool, error)) Round {
	var wg sync.WaitGroup
	rounds := make([]ShardRound, len(m.shards))
	for i, sh := range m.shards {
		if ctx.Err() != nil {
			rounds[i] = ShardRound{Name: sh.cfg.Name, Err: ctx.Err()}
			continue
		}
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			m.sem <- struct{}{}
			defer func() { <-m.sem }()
			installed, err := syncShard(sh.sy)
			rounds[i] = ShardRound{Name: sh.cfg.Name, Installed: installed, Epoch: sh.store.Epoch(), Err: err}
		}(i, sh)
	}
	wg.Wait()
	for i, sh := range m.shards {
		sh.failed = rounds[i].Err != nil
		sh.lastErr = ""
		if sh.failed {
			sh.lastErr = rounds[i].Err.Error()
		}
	}
	installed := m.publish()
	// Persist after publishing, so the fleet epoch a shard records covers
	// the merged install its own new epoch caused.
	for i, sh := range m.shards {
		if rounds[i].Installed {
			m.persistShard(sh, false)
		}
	}
	m.fleet.MarkSync(m.now())
	return Round{Shards: rounds, Installed: installed, FleetEpoch: m.fleet.Epoch()}
}

// publish gathers the shards' current snapshots and publishes a new View.
// Only when the epoch vector or the partial flag changed does it fold them,
// with one Merge call, into a new merged snapshot — one copy of every run
// plus the sum of the shards' aggregates, timed into Ingest.MergeDuration —
// and install it under a new fleet epoch; an
// idle poll re-publishes the previous merged snapshot untouched. It reports
// whether a new merged snapshot was installed.
func (m *Manager) publish() bool {
	statuses := make([]ShardStatus, len(m.shards))
	snaps := make([]*store.Snapshot, 0, len(m.shards))
	vector := make([]store.ShardEpoch, 0, len(m.shards))
	partial := false
	for i, sh := range m.shards {
		snap := sh.store.Current()
		st := ShardStatus{
			Name:      sh.cfg.Name,
			Status:    "ok",
			Snap:      snap,
			LastError: sh.lastErr,
			Restore:   sh.restore,
		}
		if t, ok := sh.store.LastSync(); ok {
			st.LastSync = t
		}
		if snap != nil {
			st.Epoch = snap.Epoch
			st.Runs = snap.TotalRuns()
			snaps = append(snaps, snap)
			vector = append(vector, store.ShardEpoch{Machine: snap.Machine, Epoch: snap.Epoch})
		} else {
			st.Status = "waiting"
			partial = true
		}
		if sh.failed {
			st.Status = "failed"
			partial = true
		}
		statuses[i] = st
	}

	v := &View{Partial: partial, Shards: statuses}
	installed := false
	if prev := m.view.Load(); prev != nil && prev.Merged != nil &&
		slices.Equal(prev.Merged.Shards, vector) && prev.Merged.Partial == partial {
		v.Merged = prev.Merged
	} else if len(vector) > 0 {
		began := m.now()
		merged := store.Merge(snaps...)
		merged.Ingest.MergeDuration = m.now().Sub(began)
		merged.Partial = partial
		m.fleet.Install(merged)
		installed = true
		v.Merged = merged
	}
	v.FleetEpoch = m.fleet.Epoch()
	m.view.Store(v)
	return installed
}

// persistShard writes one shard's state crash-safely, rate-limited by the
// state interval unless forced. Failures are logged, never fatal.
func (m *Manager) persistShard(sh *shard, force bool) {
	if sh.statePath == "" {
		return
	}
	if !force && m.now().Sub(sh.lastPersist) < m.every {
		return
	}
	sst, err := sh.sy.ExportState()
	if err == nil {
		err = persist.Save(sh.statePath, &persist.State{
			SavedAt:     m.now(),
			Epoch:       sh.store.Epoch(),
			FleetEpoch:  m.fleet.Epoch(),
			Fingerprint: sh.fp,
			Syncer:      sst,
		})
	}
	if err != nil {
		m.logf("fleet: shard %s: state persist failed: %v", sh.cfg.Name, err)
		return
	}
	sh.lastPersist = m.now()
}

// PersistAll force-persists every shard that has a state path and is not
// failed (a poisoned pipeline's state is deliberately not persisted). The
// daemon calls it on shutdown.
func (m *Manager) PersistAll() {
	for _, sh := range m.shards {
		if sh.failed {
			continue
		}
		m.persistShard(sh, true)
	}
}
