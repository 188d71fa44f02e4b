// Live monitor: run the online serving stack in one process — synthesize a
// day of small-machine field data into a scratch directory, ingest it with
// the snapshot store's tailer/syncer, serve the query API on a loopback
// port, and query it like an operator would. Then append a second day to
// the same archives, sync again, and watch the snapshot epoch advance while
// only part of the run population is re-attributed.
//
// This is the library-level view of what `logdiverd` automates with a poll
// loop and signal handling.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"logdiver"
	"logdiver/internal/serve"
	"logdiver/internal/store"
	"logdiver/internal/version"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "live-monitor:", err)
		os.Exit(1)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "live-monitor")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Day one of production lands in the archive directory.
	if err := writeDay(dir, 0, 41); err != nil {
		return err
	}

	top, err := logdiver.NewTopology(logdiver.SmallMachine())
	if err != nil {
		return err
	}
	st := store.New()
	sy, err := store.NewSyncer(store.SyncerConfig{
		Tailer:   store.NewTailer(dir),
		Store:    st,
		Topology: top,
	})
	if err != nil {
		return err
	}
	if _, err := sy.Sync(); err != nil {
		return err
	}
	snap := st.Current()
	fmt.Printf("ingested day 1: epoch %d, %d runs, %d events\n",
		snap.Epoch, len(snap.Result.Runs), snap.Result.NumEvents)

	// Serve the latest snapshot on a loopback port.
	srv, err := serve.New(serve.Config{Store: st, Version: version.Get()})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ctx, l, 2*time.Second) }()
	base := "http://" + l.Addr().String()
	fmt.Printf("serving on %s\n\n", base)

	if err := show(base, "/v1/outcomes"); err != nil {
		return err
	}
	if err := show(base, "/v1/health"); err != nil {
		return err
	}

	// Day two arrives: append to the same archives and sync. The epoch
	// advances and queries immediately see the larger population; runs far
	// from the new data keep their attribution without being redone.
	if err := writeDay(dir, 1, 42); err != nil {
		return err
	}
	if _, err := sy.Sync(); err != nil {
		return err
	}
	snap = st.Current()
	fmt.Printf("ingested day 2: epoch %d, %d runs (%d re-attributed this round)\n\n",
		snap.Epoch, len(snap.Result.Runs), snap.Ingest.Reattributed)

	if err := show(base, "/v1/outcomes"); err != nil {
		return err
	}

	cancel()
	return <-serveDone
}

// writeDay appends one generated day to the conventional archive files.
func writeDay(dir string, offsetDays int, seed int64) error {
	cfg := logdiver.SmallGeneratorConfig(1)
	cfg.Seed = seed
	cfg.Start = cfg.Start.AddDate(0, 0, offsetDays)
	ds, err := logdiver.Generate(cfg)
	if err != nil {
		return err
	}
	for _, a := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{store.AccountingFile, ds.WriteAccounting},
		{store.ApsysFile, ds.WriteApsys},
		{store.SyslogFile, ds.WriteErrorLog},
	} {
		f, err := os.OpenFile(filepath.Join(dir, a.name), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if err := a.write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// show fetches one endpoint and prints a compacted view of its JSON.
func show(base, path string) error {
	resp, err := http.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, body)
	}
	var buf json.RawMessage = body
	compact, err := json.Marshal(buf)
	if err != nil {
		return err
	}
	fmt.Printf("GET %s\n  %s\n\n", path, truncate(string(compact), 300))
	return nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
