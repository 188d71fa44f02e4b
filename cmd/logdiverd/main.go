// Command logdiverd is the online serving daemon: it tails the growing log
// archives of one or more machines, keeps an incrementally updated analysis
// of every application run, and serves the study's views over HTTP.
//
// Usage:
//
//	logdiverd -data-dir ./archive [-machine bluewaters|small] [-state-dir ./state]
//	logdiverd -fleet-config fleet.conf
//	    [-listen :8080] [-poll-interval 2s]
//	    [-parse-mode lenient|strict] [-rules site-rules.txt]
//	    [-request-timeout 10s] [-state-interval 1m]
//	logdiverd -version
//
// There is one runtime: a fleet.Manager running one incremental pipeline
// per machine shard. -fleet-config names a file with one [shard NAME]
// section per machine (archive dir, machine profile, optional state dir);
// -data-dir D [-machine P] [-state-dir S] is shorthand for the one-shard
// fleet "[shard P] archive-dir = D, machine = P, state-dir = S".
// The two are mutually exclusive, and -state-dir belongs to the shorthand
// (a config file sets state-dir per shard).
//
// Every -poll-interval each shard polls its archive dir for growth of
// accounting.log, apsys.log and syslog.log (the names `logdiver generate`
// writes; absent files are treated as empty until they appear). New lines
// are appended to the shard's pipeline, the affected time window is
// re-attributed, and the shards' snapshots are folded into one immutable
// merged snapshot published under the next epoch, carrying the per-shard
// epoch vector. Queries are answered from the latest snapshot without
// locking; every response carries its epoch.
//
// A shard whose round fails — unreadable archive, strict-mode parse error —
// is marked failed and keeps its last good snapshot in the merged view,
// marked partial: /v1/health turns "degraded" and shows the error in the
// shard's row, and the daemon keeps serving. That holds for the one shard of
// -data-dir too: a sync error never exits the process.
//
// With a state dir a shard is durable: after snapshot installs (at most
// every -state-interval) and again on shutdown it writes its full analysis
// state — pipeline, tail offsets, epochs — crash-safely to
// <state-dir>/state.ldv, and on boot it warm-starts from that file in
// milliseconds instead of re-ingesting history. An unusable state file
// (torn, corrupted, version-skewed, or written under different
// configuration) falls back to a cold rebuild in lenient mode and is a
// startup error in strict mode; /v1/health reports each shard's boot
// provenance in its row's "restore" and /metrics folds them into
// logdiver_warm_restart. Inspect a state file offline with `logdiver state`.
//
// Endpoints: /v1/health, /v1/outcomes, /v1/scaling?class=xe|xk, /v1/mtti,
// /v1/categories (each also under /v1/fleet/ with the epoch vector attached,
// and narrowed to one shard by ?machine=NAME), /v1/runs, /v1/runs/{apid},
// POST /v1/whatif, and Prometheus text metrics at /metrics.
//
// SIGINT/SIGTERM stop the poll loop, persist every healthy shard's state and
// drain in-flight requests before exit. Logs are structured JSON on stderr.
//
// Every worker pool runs runtime.GOMAXPROCS(0) workers, so the GOMAXPROCS
// environment variable sizes them.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"logdiver"
	"logdiver/internal/fleet"
	"logdiver/internal/persist"
	"logdiver/internal/rulecheck"
	"logdiver/internal/serve"
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
		dataDir     = fs.String("data-dir", "", "directory with accounting.log, apsys.log, syslog.log: shorthand for a one-shard fleet named after -machine")
		fleetConf   = fs.String("fleet-config", "", "fleet config file with one [shard NAME] section per machine (mutually exclusive with -data-dir)")
		poll        = fs.Duration("poll-interval", 2*time.Second, "archive poll interval")
		machineName = fs.String("machine", "bluewaters", "machine model of the -data-dir shard, and its name: bluewaters or small")
		mode        = fs.String("parse-mode", "lenient", "malformed-input policy: lenient or strict")
		rules       = fs.String("rules", "", "optional classifier rule file (replaces the built-in taxonomy rules)")
		validate    = fs.Bool("validate-rules", true, "lint -rules files and reject rule sets with error-severity findings")
		reqTimeout  = fs.Duration("request-timeout", serve.DefaultRequestTimeout, "per-request deadline for POST /v1/whatif")
		rateLimit   = fs.Float64("rate-limit", 0, "per-client requests/second on the data endpoints (0 = no rate limiting; excess gets 429 + Retry-After)")
		maxInflight = fs.Int("max-inflight", 0, "bound on concurrently executing data-endpoint requests (0 = unbounded; excess gets immediate 503 + Retry-After)")
		drain       = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		stateDir    = fs.String("state-dir", "", "directory for the -data-dir shard's durable state (empty = no persistence, cold rebuild on every start)")
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
		return fmt.Errorf("-state-dir belongs to -data-dir: set state-dir per shard in %s", *fleetConf)
	}
	if *poll <= 0 {
		return fmt.Errorf("-poll-interval must be positive")
	}

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))

	parseMode, err := logdiver.ParseModeFromString(*mode)
	if err != nil {
		return err
	}
	cls, rawRules, err := rulecheck.LoadClassifier(*rules, *validate, func(fd rulecheck.Finding) {
		logger.Warn("rule finding", "file", *rules, "finding", fd.String())
	})
	if err != nil {
		return err
	}
	rulesID := persist.RulesBuiltin
	if *rules != "" {
		rulesID = persist.HashRules(rawRules)
	}

	// One topology: -data-dir is a fleet of one, named after its profile.
	fcfg := &fleet.Config{Shards: []fleet.ShardConfig{{
		Name: *machineName, ArchiveDir: *dataDir, Machine: *machineName, StateDir: *stateDir,
	}}}
	if *fleetConf != "" {
		if fcfg, err = fleet.LoadConfig(*fleetConf); err != nil {
			return err
		}
	}
	mgr, err := fleet.NewManager(fleet.ManagerConfig{
		Config:        fcfg,
		Options:       logdiver.Options{ParseMode: parseMode, Classifier: cls},
		RulesID:       rulesID,
		StateInterval: *stateEvery,
		Logf: func(format string, args ...any) {
			logger.Warn(fmt.Sprintf(format, args...))
		},
	})
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Config{
		Fleet:          mgr,
		RequestTimeout: *reqTimeout,
		RateLimit:      *rateLimit,
		MaxInFlight:    *maxInflight,
	})
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
	logger.Info("logdiverd starting",
		"version", version.Get().String(),
		"listen", l.Addr().String(),
		"fleet_config", *fleetConf,
		"data_dir", *dataDir,
		"shards", mgr.Machines(),
		"poll_interval", poll.String(),
		"parse_mode", parseMode.String(),
	)
	for _, sh := range mgr.View().Shards {
		logger.Info("shard restore", "shard", sh.Name,
			"mode", sh.Restore.Mode, "epoch", sh.Restore.Epoch, "detail", sh.Restore.Detail)
	}

	// Ingestion loop: one goroutine owns the manager; the first round runs
	// immediately so /v1/health turns ready without waiting a full tick.
	// Rounds never stop the daemon: a shard whose sync fails is marked
	// failed and the merged view turns partial; the rest keeps serving.
	syncDone := make(chan struct{})
	go func() {
		defer close(syncDone)
		tick := time.NewTicker(*poll)
		defer tick.Stop()
		for {
			round := mgr.SyncRound(ctx)
			for _, shr := range round.Shards {
				if shr.Err != nil {
					logger.Warn("shard sync failed",
						"shard", shr.Name, "error", shr.Err.Error())
				}
			}
			if round.Installed {
				snap := mgr.FleetStore().Current()
				logger.Info("snapshot installed",
					"epoch", round.FleetEpoch,
					"shards", snap.EpochVector(),
					"runs", snap.Outcomes.Total,
					"events", snap.Result.NumEvents,
					"partial", snap.Partial,
				)
			}
			select {
			case <-ctx.Done():
				// Final persist on shutdown, interval notwithstanding: the
				// state on disk should match the last snapshot served.
				mgr.PersistAll()
				return
			case <-tick.C:
			}
		}
	}()

	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ctx, l, *drain) }()

	err = <-serveDone
	stop() // bring the ingestion loop down too
	<-syncDone
	logger.Info("logdiverd stopped")
	return err
}
