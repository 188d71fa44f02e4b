// Command logdiverd is the online serving daemon: it tails the growing log
// archives of a data directory, keeps an incrementally updated analysis of
// every application run, and serves the study's views over HTTP.
//
// Usage:
//
//	logdiverd -data-dir ./archive [-listen :8080] [-poll-interval 2s]
//	    [-machine bluewaters|small] [-parallelism N]
//	    [-parse-mode lenient|strict] [-rules site-rules.txt] [-tz UTC]
//	    [-request-timeout 10s] [-state-dir ./state] [-state-interval 1m]
//	logdiverd -fleet-config fleet.conf [-fleet-sync-concurrency 4] [...]
//	logdiverd -version
//
// The daemon polls -data-dir every -poll-interval for growth of
// accounting.log, apsys.log and syslog.log (the names `logdiver generate`
// writes; absent files are treated as empty until they appear). Each poll
// that finds new lines is appended to the incremental pipeline, the
// affected time window is re-attributed, and a new immutable snapshot is
// published under the next epoch. Queries are answered from the latest
// snapshot without locking; every response carries its epoch.
//
// With -state-dir the daemon is durable: after snapshot installs (at most
// every -state-interval) and again on shutdown it writes its full analysis
// state — pipeline, tail offsets, epoch — crash-safely to
// <state-dir>/state.ldv, and on boot it warm-starts from that file in
// milliseconds instead of re-ingesting history, resuming the tail from the
// persisted offsets. An unusable state file (torn, corrupted, version-
// skewed, or written under different configuration) falls back to a cold
// rebuild in lenient mode and is a startup error in strict mode; either
// way /v1/health reports the boot provenance under "restore" and /metrics
// exposes it as logdiver_warm_restart. Inspect a state file offline with
// `logdiver state`.
//
// With -fleet-config the daemon scales from one machine to a fleet: the
// config file declares one [shard NAME] section per machine (archive dir,
// machine profile, optional per-shard state dir and zone), and the daemon
// runs one incremental pipeline per shard, folding every sync round into a
// single merged fleet snapshot carrying the composite per-shard epoch
// vector. /v1/fleet/{outcomes,scaling,mtti,categories} serve the merged
// view (?machine=NAME narrows to one shard), /v1/health grows a per-shard
// section and /metrics per-shard gauges. A shard whose archives fail keeps
// its last good snapshot in the merged view, marked partial, so one
// machine's outage never takes down the fleet's query plane. -fleet-config
// is mutually exclusive with -data-dir and -state-dir (per-shard state dirs
// come from the config file).
//
// Endpoints: /v1/health, /v1/outcomes, /v1/scaling?class=xe|xk, /v1/mtti,
// /v1/categories, /v1/runs/{apid}, /v1/fleet/* (fleet mode), and Prometheus
// text metrics at /metrics.
//
// SIGINT/SIGTERM stop the poll loop, persist the state (when -state-dir is
// set) and drain in-flight requests before exit. Logs are structured JSON
// on stderr.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"logdiver"
	"logdiver/internal/fleet"
	"logdiver/internal/persist"
	"logdiver/internal/rulecheck"
	"logdiver/internal/serve"
	"logdiver/internal/store"
	"logdiver/internal/taxonomy"
	"logdiver/internal/version"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "logdiverd:", err)
		os.Exit(1)
	}
}

// run is the testable daemon body. onListen, when non-nil, receives the
// bound listener address before serving begins (tests use it to learn the
// ephemeral port).
func run(args []string, onListen func(addr string)) error {
	fs := flag.NewFlagSet("logdiverd", flag.ContinueOnError)
	var (
		listen      = fs.String("listen", ":8080", "HTTP listen address")
		dataDir     = fs.String("data-dir", "", "directory with accounting.log, apsys.log, syslog.log (single-machine mode)")
		fleetConf   = fs.String("fleet-config", "", "fleet config file with one [shard NAME] section per machine (fleet mode; mutually exclusive with -data-dir)")
		fleetConc   = fs.Int("fleet-sync-concurrency", 4, "how many shards ingest concurrently during a fleet sync round")
		poll        = fs.Duration("poll-interval", 2*time.Second, "archive poll interval")
		machineName = fs.String("machine", "bluewaters", "machine model: bluewaters or small")
		par         = fs.Int("parallelism", 0, "ingestion workers per archive and attribution workers (0 = GOMAXPROCS)")
		mode        = fs.String("parse-mode", "lenient", "malformed-input policy: lenient or strict")
		rules       = fs.String("rules", "", "optional classifier rule file (replaces the built-in taxonomy rules)")
		validate    = fs.Bool("validate-rules", true, "lint -rules files and reject rule sets with error-severity findings")
		timezone    = fs.String("tz", "UTC", "accounting timestamp zone")
		reqTimeout  = fs.Duration("request-timeout", serve.DefaultRequestTimeout, "per-request deadline for query endpoints")
		cache       = fs.Bool("cache", true, "serve query responses from the per-epoch pre-encoded cache")
		rateLimit   = fs.Float64("rate-limit", 0, "per-client requests/second on the data endpoints (0 = no rate limiting; excess gets 429 + Retry-After)")
		rateBurst   = fs.Int("rate-burst", 0, "rate-limit token-bucket burst (0 = 2x the rate)")
		maxInflight = fs.Int("max-inflight", 0, "bound on concurrently executing data-endpoint requests (0 = unbounded; excess gets immediate 503 + Retry-After)")
		retryAfter  = fs.Duration("retry-after", serve.DefaultRetryAfter, "Retry-After hint sent with 503 concurrency sheds")
		drain       = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		stateDir    = fs.String("state-dir", "", "directory for durable state (empty = no persistence, cold rebuild on every start)")
		stateEvery  = fs.Duration("state-interval", time.Minute, "minimum interval between periodic state persists")
		showVersion = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Println(version.Get())
		return nil
	}
	if *dataDir == "" && *fleetConf == "" {
		return fmt.Errorf("one of -data-dir or -fleet-config is required")
	}
	if *dataDir != "" && *fleetConf != "" {
		return fmt.Errorf("-data-dir and -fleet-config are mutually exclusive")
	}
	if *fleetConf != "" && *stateDir != "" {
		return fmt.Errorf("-state-dir does not apply in fleet mode: set state-dir per shard in %s", *fleetConf)
	}
	if *poll <= 0 {
		return fmt.Errorf("-poll-interval must be positive")
	}

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))

	parseMode, err := logdiver.ParseModeFromString(*mode)
	if err != nil {
		return err
	}
	opts := logdiver.Options{Parallelism: *par, ParseMode: parseMode}
	rulesID := persist.RulesBuiltin
	if *rules != "" {
		raw, err := os.ReadFile(*rules)
		if err != nil {
			return err
		}
		rulesID = persist.HashRules(raw)
		parsed, err := taxonomy.ReadRuleFile(bytes.NewReader(raw))
		if err != nil {
			return err
		}
		if *validate {
			cls, findings, err := rulecheck.NewValidatedClassifier(parsed, rulecheck.Options{})
			for _, fd := range findings {
				logger.Warn("rule finding", "file", *rules, "finding", fd.String())
			}
			if err != nil {
				return fmt.Errorf("%s: %w (rerun with -validate-rules=false to override)", *rules, err)
			}
			opts.Classifier = cls
		} else {
			opts.Classifier = taxonomy.NewClassifier(taxonomy.Rules(parsed))
		}
	}

	srvCfg := serve.Config{
		Version:        version.Get(),
		RequestTimeout: *reqTimeout,
		DisableCache:   !*cache,
		RateLimit:      *rateLimit,
		RateBurst:      *rateBurst,
		MaxInFlight:    *maxInflight,
		RetryAfter:     *retryAfter,
	}

	var (
		// Single-machine mode runtime.
		st        *store.Store
		sy        *store.Syncer
		statePath string
		restore   = &serve.RestoreInfo{Mode: "cold", Detail: "persistence disabled (no -state-dir)"}
		fp        persist.Fingerprint
		// Fleet mode runtime.
		mgr *fleet.Manager
	)
	if *fleetConf != "" {
		fcfg, err := fleet.LoadConfig(*fleetConf)
		if err != nil {
			return err
		}
		mgr, err = fleet.NewManager(fleet.ManagerConfig{
			Config:          fcfg,
			Options:         opts,
			TimeZone:        *timezone,
			RulesID:         rulesID,
			SyncConcurrency: *fleetConc,
			StateInterval:   *stateEvery,
			Logf: func(format string, args ...any) {
				logger.Warn(fmt.Sprintf(format, args...))
			},
		})
		if err != nil {
			return err
		}
		srvCfg.Fleet = mgr
	} else {
		var mc logdiver.MachineConfig
		switch *machineName {
		case "bluewaters":
			mc = logdiver.BlueWaters()
		case "small":
			mc = logdiver.SmallMachine()
		default:
			return fmt.Errorf("unknown machine %q", *machineName)
		}
		top, err := logdiver.NewTopology(mc)
		if err != nil {
			return err
		}
		loc, err := time.LoadLocation(*timezone)
		if err != nil {
			return fmt.Errorf("timezone: %w", err)
		}

		// Durable state: try to warm-start from the state dir. An unusable
		// state file degrades to a cold rebuild in lenient mode (with the
		// reason logged and reported) and refuses to start in strict mode.
		var resume *store.SyncerState
		if *stateDir != "" {
			if err := os.MkdirAll(*stateDir, 0o755); err != nil {
				return fmt.Errorf("state dir: %w", err)
			}
			statePath = filepath.Join(*stateDir, persist.StateFile)
			fp = persist.Fingerprint{
				Machine:   *machineName,
				Nodes:     top.NumNodes(),
				ParseMode: parseMode.String(),
				Rules:     rulesID,
				TimeZone:  *timezone,
			}
			resume, restore, err = loadState(logger, statePath, fp, parseMode)
			if err != nil {
				return err
			}
		}

		st = store.New()
		if restore.Epoch > 0 {
			// Continue the persisted epoch sequence even on a cold fallback
			// whose file loaded: clients rely on epochs never going backward
			// across a restart of the same state dir.
			if err := st.Restore(restore.Epoch); err != nil {
				return err
			}
		}
		syCfg := store.SyncerConfig{
			Tailer:   store.NewTailer(*dataDir),
			Store:    st,
			Topology: top,
			Location: loc,
			Options:  opts,
			Resume:   resume,
		}
		sy, err = store.NewSyncer(syCfg)
		if err != nil && resume != nil {
			// The file was structurally sound but its state failed restore
			// validation: same policy as a corrupt file.
			if parseMode == logdiver.ParseStrict {
				return fmt.Errorf("state restore: %s: %w (strict mode refuses to guess: delete the state file to rebuild cold, or restart with -parse-mode lenient)", statePath, err)
			}
			logger.Warn("state restore failed; rebuilding cold from the archives",
				"path", statePath, "reason", err.Error())
			restore = &serve.RestoreInfo{Mode: "cold-fallback", Detail: err.Error(), Epoch: restore.Epoch}
			syCfg.Resume = nil
			syCfg.Tailer = store.NewTailer(*dataDir)
			sy, err = store.NewSyncer(syCfg)
		}
		if err != nil {
			return err
		}
		srvCfg.Store = st
		srvCfg.Restore = restore
	}
	srv, err := serve.New(srvCfg)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	if onListen != nil {
		onListen(l.Addr().String())
	}
	if mgr != nil {
		logger.Info("logdiverd starting",
			"version", version.Get().String(),
			"listen", l.Addr().String(),
			"fleet_config", *fleetConf,
			"shards", mgr.Machines(),
			"poll_interval", poll.String(),
			"parse_mode", parseMode.String(),
		)
	} else {
		logger.Info("logdiverd starting",
			"version", version.Get().String(),
			"listen", l.Addr().String(),
			"data_dir", *dataDir,
			"machine", *machineName,
			"poll_interval", poll.String(),
			"parse_mode", parseMode.String(),
			"restore", restore.Mode,
			"restore_epoch", restore.Epoch,
		)
	}

	// Ingestion loop: one goroutine owns the Syncer (or the fleet manager);
	// the first round runs immediately so /v1/health turns ready without
	// waiting a full tick.
	syncDone := make(chan error, 1)
	go func() {
		defer close(syncDone)
		tick := time.NewTicker(*poll)
		defer tick.Stop()
		var lastPersist time.Time
		for {
			if mgr != nil {
				// Fleet rounds never stop the daemon: a shard whose sync
				// fails is marked failed and the merged view turns partial;
				// the rest of the fleet keeps serving.
				round := mgr.SyncRound(ctx)
				for _, shr := range round.Shards {
					if shr.Err != nil {
						logger.Warn("shard sync failed",
							"shard", shr.Name, "error", shr.Err.Error())
					}
				}
				if round.Installed {
					snap := mgr.FleetStore().Current()
					logger.Info("fleet snapshot installed",
						"fleet_epoch", round.FleetEpoch,
						"runs", len(snap.Result.Runs),
						"partial", snap.Partial,
					)
				}
			} else {
				installed, err := sy.Sync()
				if err != nil {
					// A strict-mode parse failure poisons the pipeline: there
					// is no way to serve correct numbers past corrupt input,
					// so surface it and stop the daemon. The poisoned state is
					// deliberately NOT persisted.
					syncDone <- fmt.Errorf("sync: %w", err)
					return
				}
				if installed {
					snap := st.Current()
					logger.Info("snapshot installed",
						"epoch", snap.Epoch,
						"runs", len(snap.Result.Runs),
						"events", len(snap.Result.Events),
						"reattributed", snap.Ingest.Reattributed,
						"build_ms", snap.Ingest.BuildDuration.Milliseconds(),
					)
					if statePath != "" && time.Since(lastPersist) >= *stateEvery {
						persistState(logger, sy, st, fp, statePath)
						lastPersist = time.Now()
					}
				}
			}
			select {
			case <-ctx.Done():
				// Final persist on shutdown, interval notwithstanding: the
				// state on disk should match the last snapshot served.
				if mgr != nil {
					mgr.PersistAll()
				} else if statePath != "" {
					persistState(logger, sy, st, fp, statePath)
				}
				return
			case <-tick.C:
			}
		}
	}()

	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ctx, l, *drain) }()

	var firstErr error
	select {
	case err := <-syncDone:
		firstErr = err
		stop() // bring the HTTP server down too
		<-serveDone
	case err := <-serveDone:
		firstErr = err
		stop()
		<-syncDone
	}
	logger.Info("logdiverd stopped")
	return firstErr
}

// loadState reads the state file and decides the boot mode. A missing file
// is a normal cold start. Any other failure — structural corruption,
// version skew, a configuration fingerprint mismatch — degrades to a cold
// rebuild in lenient mode (logged, and reported via RestoreInfo) and is a
// startup error naming the file and reason in strict mode.
func loadState(logger *slog.Logger, path string, fp persist.Fingerprint, mode logdiver.ParseMode) (*store.SyncerState, *serve.RestoreInfo, error) {
	ld, err := persist.Load(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, &serve.RestoreInfo{Mode: "cold", Detail: "no state file yet"}, nil
	}
	reject := func(reason error) (*store.SyncerState, *serve.RestoreInfo, error) {
		if mode == logdiver.ParseStrict {
			return nil, nil, fmt.Errorf("state restore: %w (strict mode refuses to guess: delete the state file to rebuild cold, or restart with -parse-mode lenient)", reason)
		}
		logger.Warn("state restore failed; rebuilding cold from the archives",
			"path", path, "reason", reason.Error())
		info := &serve.RestoreInfo{Mode: "cold-fallback", Detail: reason.Error()}
		if ld != nil {
			info.Epoch = ld.Epoch
		}
		return nil, info, nil
	}
	if err != nil {
		return reject(err)
	}
	if diff := ld.Fingerprint.Diff(fp); diff != "" {
		return reject(fmt.Errorf("%s: configuration changed since the state was written: %s", path, diff))
	}
	return ld.Syncer, &serve.RestoreInfo{Mode: "warm", Epoch: ld.Epoch, SavedAt: ld.SavedAt}, nil
}

// persistState exports the syncer and writes the state file crash-safely.
// Failures are logged, never fatal: a daemon that cannot persist still
// serves correctly, it just pays a cold rebuild on its next start.
func persistState(logger *slog.Logger, sy *store.Syncer, st *store.Store, fp persist.Fingerprint, path string) {
	began := time.Now()
	sst, err := sy.ExportState()
	if err == nil {
		err = persist.Save(path, &persist.State{
			SavedAt:     time.Now(),
			Epoch:       st.Epoch(),
			Fingerprint: fp,
			Syncer:      sst,
		})
	}
	if err != nil {
		logger.Warn("state persist failed", "path", path, "error", err.Error())
		return
	}
	logger.Info("state persisted",
		"path", path,
		"epoch", st.Epoch(),
		"took_ms", time.Since(began).Milliseconds(),
	)
}
