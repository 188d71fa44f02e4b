package store

import (
	"errors"
	"fmt"
	"time"

	"logdiver/internal/core"
	"logdiver/internal/machine"
)

// SyncerConfig wires a Syncer.
type SyncerConfig struct {
	// Tailer supplies the raw archive deltas. Required.
	Tailer *Tailer
	// Store receives the built snapshots. Required.
	Store *Store
	// Topology is the machine the archives describe. Required.
	Topology *machine.Topology
	// Location interprets accounting timestamps (UTC when nil).
	Location *time.Location
	// Options follows core.Analyze semantics (zero value = study defaults).
	Options core.Options
	// Machine, when set, stamps every built snapshot with the shard name
	// it was analyzed for. The fleet manager sets it so merged views can
	// identify each contribution; a bare Syncer may leave it empty.
	Machine string
	// Resume, when non-nil, warm-starts the syncer from persisted state:
	// the pipeline picks up its assemblers and attribution carry, the
	// tailer its offsets, and the ingest counters their history. The
	// configuration above still governs — Resume carries data, not policy.
	Resume *SyncerState
	// Now injects the clock (time.Now when nil); tests pin it.
	Now func() time.Time
}

// Syncer drives ingestion rounds: poll the tailer, append the delta to the
// incremental pipeline, rebuild the snapshot and install it. One Syncer
// owns one ingestion sequence; it is not safe for concurrent use — the
// daemon runs Sync from a single goroutine and readers see the results
// through the Store.
type Syncer struct {
	tail    *Tailer
	inc     *core.Incremental
	store   *Store
	top     *machine.Topology
	machine string
	now     func() time.Time
	ing     IngestStats
}

// NewSyncer validates cfg and returns a Syncer with an empty pipeline.
func NewSyncer(cfg SyncerConfig) (*Syncer, error) {
	if cfg.Tailer == nil {
		return nil, fmt.Errorf("store: nil tailer")
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("store: nil store")
	}
	var (
		inc *core.Incremental
		err error
		ing IngestStats
	)
	if cfg.Resume != nil {
		inc, err = core.RestoreIncremental(cfg.Topology, cfg.Location, cfg.Options, cfg.Resume.Pipeline)
		if err == nil {
			err = cfg.Tailer.RestoreState(cfg.Resume.Tailer)
		}
		ing = cfg.Resume.Ingest
	} else {
		inc, err = core.NewIncremental(cfg.Topology, cfg.Location, cfg.Options)
	}
	if err != nil {
		return nil, err
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	return &Syncer{
		tail:    cfg.Tailer,
		inc:     inc,
		store:   cfg.Store,
		top:     cfg.Topology,
		machine: cfg.Machine,
		now:     now,
		ing:     ing,
	}, nil
}

// Sync runs one ingestion round and reports whether a new snapshot was
// installed. A poll that finds no new data is a no-op (the sync heartbeat
// still advances) — except for the very first round, which installs an
// empty snapshot so the API becomes ready even over empty archives. A
// poisoned pipeline (strict-mode parse failure) fails every later round with
// the poisoning error, idle ones included, and consumes no further input: the
// failure stays visible until the process is restarted.
func (s *Syncer) Sync() (installed bool, err error) { return s.sync(false) }

// SyncAll is a batch read's one round: it appends everything the archives
// hold — poll after small poll until one finds nothing, then the
// unterminated last lines a poll holds back — and installs one snapshot over
// it all. It is the syncer's last round: a live tail never calls it, since
// bytes that arrive after a released last line would be read as a line of
// their own. Once it succeeds, the pipeline, which only later rounds would
// need, is released — a batch analysis of many shards keeps their
// snapshots, not their pipelines — and every later round or ExportState
// fails.
func (s *Syncer) SyncAll() (installed bool, err error) { return s.sync(true) }

// errDrained fails every round and ExportState after a successful SyncAll.
var errDrained = errors.New("store: the syncer has drained its archives")

// sync runs Sync's round, or SyncAll's when all is set.
func (s *Syncer) sync(all bool) (installed bool, err error) {
	defer func() {
		// Heartbeat even on failed or empty rounds: ingestion lag measures
		// the poll loop being alive, not data arriving.
		s.store.MarkSync(s.now())
	}()
	if s.inc == nil {
		return false, errDrained
	}
	if err := s.inc.Err(); err != nil {
		return false, err
	}
	limit := int64(maxPollBytes)
	if all {
		limit = drainPollBytes
	}
	began, data := time.Time{}, false
	for more := true; more; {
		d, err := s.tail.poll(limit)
		if err != nil {
			return false, err
		}
		more = all && !d.Empty()
		switch {
		case all && !more:
			d = s.tail.rest()
		case d.Empty() && s.store.Current() != nil:
			return false, nil
		}
		if began.IsZero() {
			began = s.now()
		}
		ast, err := s.inc.Append(d)
		if err != nil {
			return false, err
		}
		data = data || !d.Empty()
		s.ing.AccountingLines += ast.AccountingLines
		s.ing.ApsysLines += ast.ApsysLines
		s.ing.SyslogLines += ast.SyslogLines
	}
	appended := s.now()
	res, err := s.inc.Result()
	if err != nil {
		return false, err
	}
	s.ing.AppendDuration, s.ing.ResultDuration = appended.Sub(began), s.now().Sub(appended)
	if data {
		s.ing.Rounds++
	}
	s.ing.Reattributed = s.inc.Reattributed()
	snap, err := Build(res, s.top, s.ing, s.now())
	if err != nil {
		return false, err
	}
	// Stamped after Build so the duration covers the whole rebuild: append,
	// re-attribution and the snapshot's aggregates.
	s.ing.BuildDuration = s.now().Sub(began)
	snap.Ingest.BuildDuration = s.ing.BuildDuration
	snap.Machine = s.machine
	s.store.Install(snap)
	if all {
		s.inc = nil
	}
	return true, nil
}
