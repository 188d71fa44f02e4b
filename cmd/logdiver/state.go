package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"logdiver/internal/persist"
)

// stateCmd inspects and verifies a logdiverd state file: it runs the full
// Load validation (magic, version, length, checksum, then the payload's
// records one by one) and
// prints what the daemon would restore — epoch, configuration fingerprint,
// ingest history, tail offsets, pipeline population. Any validation
// failure is reported with the same typed error the daemon would act on,
// and makes the command exit nonzero, so `logdiver state` doubles as a
// pre-flight check before restarting a production daemon.
func stateCmd(args []string) error {
	fs := flag.NewFlagSet("state", flag.ContinueOnError)
	var (
		file    = fs.String("file", "", "state file to inspect")
		dir     = fs.String("state-dir", "", "daemon state directory (inspects its "+persist.StateFile+")")
		jsonOut = fs.Bool("json", false, "emit the inspection as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	path := *file
	if path == "" && *dir != "" {
		path = filepath.Join(*dir, persist.StateFile)
	}
	if path == "" {
		return fmt.Errorf("state: -file or -state-dir is required")
	}

	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	st, err := persist.Load(path)
	if err != nil {
		return fmt.Errorf("state: %w", err)
	}

	sy := st.Syncer
	p := sy.Pipeline
	events, rawEvents := p.EventCounts()
	view := stateView{
		Path:        path,
		SizeBytes:   fi.Size(),
		Version:     persist.Version,
		SavedAt:     st.SavedAt.UTC().Format(time.RFC3339),
		Epoch:       st.Epoch,
		Fingerprint: st.Fingerprint,
		Ingest: ingestView{
			Rounds:          sy.Ingest.Rounds,
			AccountingLines: sy.Ingest.AccountingLines,
			ApsysLines:      sy.Ingest.ApsysLines,
			SyslogLines:     sy.Ingest.SyslogLines,
		},
		Pipeline: pipelineView{
			Jobs:       len(p.Jobs),
			OpenRuns:   len(p.Alps.Open),
			Done:       len(p.Alps.Done),
			Attributed: len(p.Attr),
			Events:     events,
			RawEvents:  rawEvents,
		},
	}
	for i, name := range []string{"accounting", "apsys", "syslog"} {
		f := sy.Tailer.Files[i]
		view.Tailer = append(view.Tailer, tailView{
			Archive: name, Offset: f.Offset, CarryBytes: len(f.Carry), Inode: f.Inode,
		})
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(view)
	}
	fmt.Printf("state file: %s (%d bytes)\n", view.Path, view.SizeBytes)
	fmt.Printf("format:     version %d, checksum ok\n", view.Version)
	fmt.Printf("saved:      %s\n", view.SavedAt)
	fmt.Printf("epoch:      %d\n", view.Epoch)
	fmt.Printf("config:     machine=%s nodes=%d parse-mode=%s rules=%s\n",
		st.Fingerprint.Machine, st.Fingerprint.Nodes, st.Fingerprint.ParseMode, st.Fingerprint.Rules)
	fmt.Printf("ingest:     %d rounds; lines: %d accounting, %d apsys, %d syslog\n",
		view.Ingest.Rounds, view.Ingest.AccountingLines, view.Ingest.ApsysLines, view.Ingest.SyslogLines)
	for _, tv := range view.Tailer {
		fmt.Printf("tail:       %-10s offset=%d carry=%dB inode=%d\n",
			tv.Archive, tv.Offset, tv.CarryBytes, tv.Inode)
	}
	fmt.Printf("pipeline:   %d jobs, %d open runs, %d completed (%d attributed), %d events (%d raw)\n",
		view.Pipeline.Jobs, view.Pipeline.OpenRuns, view.Pipeline.Done,
		view.Pipeline.Attributed, view.Pipeline.Events, view.Pipeline.RawEvents)
	return nil
}

// stateView is the JSON shape of `logdiver state -json`.
type stateView struct {
	Path        string              `json:"path"`
	SizeBytes   int64               `json:"size_bytes"`
	Version     uint32              `json:"version"`
	SavedAt     string              `json:"saved_at"`
	Epoch       uint64              `json:"epoch"`
	Fingerprint persist.Fingerprint `json:"fingerprint"`
	Ingest      ingestView          `json:"ingest"`
	Tailer      []tailView          `json:"tailer"`
	Pipeline    pipelineView        `json:"pipeline"`
}

type ingestView struct {
	Rounds          int `json:"rounds"`
	AccountingLines int `json:"accounting_lines"`
	ApsysLines      int `json:"apsys_lines"`
	SyslogLines     int `json:"syslog_lines"`
}

type tailView struct {
	Archive    string `json:"archive"`
	Offset     int64  `json:"offset"`
	CarryBytes int    `json:"carry_bytes"`
	Inode      uint64 `json:"inode"`
}

type pipelineView struct {
	Jobs       int `json:"jobs"`
	OpenRuns   int `json:"open_runs"`
	Done       int `json:"completed_runs"`
	Attributed int `json:"attributed_runs"`
	Events     int `json:"events"`
	RawEvents  int `json:"raw_events"`
}
