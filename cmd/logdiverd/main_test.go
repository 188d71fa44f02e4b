package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"logdiver/internal/core"
	"logdiver/internal/gen"
	"logdiver/internal/machine"
	"logdiver/internal/serve"
	"logdiver/internal/store"
)

// writeDataset generates one small-machine day of data and appends its
// archive directory to dir.
func writeDataset(t *testing.T, dir string, offsetDays int, seed int64) *gen.Dataset {
	t.Helper()
	cfg := gen.Small(1)
	cfg.Seed = seed
	cfg.Start = cfg.Start.AddDate(0, 0, offsetDays)
	cfg.Workload.JobsPerDay = 120
	ds, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.AppendDir(dir); err != nil {
		t.Fatal(err)
	}
	return ds
}

type restore struct {
	Mode   string `json:"mode"`
	Detail string `json:"detail"`
	Epoch  uint64 `json:"epoch"`
}

type health struct {
	Status string `json:"status"`
	Epoch  uint64 `json:"epoch"`
	Runs   int    `json:"runs"`
	Fleet  *struct {
		FleetEpoch uint64 `json:"fleet_epoch"`
		Partial    bool   `json:"partial"`
		Shards     []struct {
			Name    string  `json:"name"`
			Status  string  `json:"status"`
			Epoch   uint64  `json:"epoch"`
			Runs    int     `json:"runs"`
			Error   string  `json:"error"`
			Restore restore `json:"restore"`
		} `json:"shards"`
	} `json:"fleet"`
}

// soleRestore returns the boot provenance of a -data-dir daemon: the restore
// object of its one shard row, which is named after the -machine profile.
func soleRestore(t *testing.T, h health) restore {
	t.Helper()
	if h.Fleet == nil || len(h.Fleet.Shards) != 1 || h.Fleet.Shards[0].Name != "small" {
		t.Fatalf("health fleet section %+v, want exactly the shard \"small\"", h.Fleet)
	}
	return h.Fleet.Shards[0].Restore
}

func getHealth(base string) (health, error) {
	var h health
	resp, err := http.Get(base + "/v1/health")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return h, err
	}
	if err := json.Unmarshal(body, &h); err != nil {
		return h, fmt.Errorf("bad health JSON %q: %w", body, err)
	}
	return h, nil
}

// waitFor polls the health endpoint until pred holds or the deadline hits.
func waitFor(t *testing.T, base string, what string, pred func(health) bool) health {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var last health
	for time.Now().Before(deadline) {
		h, err := getHealth(base)
		if err == nil {
			last = h
			if pred(h) {
				return h
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; last health %+v", what, last)
	return health{}
}

// TestDaemonEndToEnd boots the real daemon body against a growing archive
// directory: readiness, every endpoint, epoch advance on append, and
// graceful SIGTERM shutdown.
func TestDaemonEndToEnd(t *testing.T) {
	dir := t.TempDir()
	ds := writeDataset(t, dir, 0, 31)

	addrCh := make(chan string, 1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- run([]string{
			"-listen", "127.0.0.1:0",
			"-data-dir", dir,
			"-poll-interval", "100ms",
			"-machine", "small",
		}, func(addr string) { addrCh <- addr })
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case err := <-errCh:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never bound its listener")
	}

	h := waitFor(t, base, "first snapshot", func(h health) bool {
		return h.Status == "ok" && h.Runs > 0
	})
	if got, want := h.Runs, len(ds.Runs); got != want {
		t.Errorf("runs %d, want %d", got, want)
	}
	firstEpoch := h.Epoch

	// Every endpoint answers 200 with a JSON (or Prometheus) body.
	for _, path := range []string{
		"/v1/outcomes", "/v1/scaling?class=xe", "/v1/scaling?class=xk",
		"/v1/mtti", "/v1/categories",
		fmt.Sprintf("/v1/runs/%d", ds.Runs[0].ApID),
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d: %s", path, resp.StatusCode, body)
		}
		if !json.Valid(body) {
			t.Errorf("%s: invalid JSON: %q", path, body)
		}
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(mbody), "logdiver_snapshot_epoch") {
		t.Errorf("metrics missing snapshot epoch gauge:\n%s", mbody)
	}

	// The archive grows; the daemon must notice and advance the epoch.
	writeDataset(t, dir, 2, 32)
	// (A poll may land between the three appends and advance the epoch on
	// accounting lines alone, so wait for the runs, not just the epoch.)
	firstRuns := h.Runs
	waitFor(t, base, "epoch advance with new runs", func(h health) bool {
		return h.Epoch > firstEpoch && h.Runs > firstRuns
	})

	// Graceful shutdown on SIGTERM.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("daemon exited with error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not stop on SIGTERM")
	}
}

// bootDaemon starts the daemon body with the given extra flags and returns
// its base URL and exit channel. stop() sends SIGTERM and waits for a clean
// exit.
func bootDaemon(t *testing.T, dir string, extra ...string) (base string, stop func()) {
	t.Helper()
	args := append([]string{
		"-listen", "127.0.0.1:0",
		"-data-dir", dir,
		"-poll-interval", "100ms",
		"-machine", "small",
	}, extra...)
	addrCh := make(chan string, 1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(args, func(addr string) { addrCh <- addr })
	}()
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case err := <-errCh:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never bound its listener")
	}
	return base, func() {
		t.Helper()
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatalf("daemon exited with error: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("daemon did not stop on SIGTERM")
		}
	}
}

// TestDaemonWarmRestart is the end-to-end durability scenario: run, grow,
// persist on SIGTERM, stop, grow the archives while down, restart — the
// second life must report a warm restore from the state the first life
// saved on its way out, continue the epoch sequence, and still pick up the
// growth.
func TestDaemonWarmRestart(t *testing.T) {
	dir, stateDir := t.TempDir(), t.TempDir()
	ds1 := writeDataset(t, dir, 0, 31)

	// First life: cold (no state file yet). A cold boot saves on its first
	// round; the hour-long state interval leaves the growth after that to
	// the save on SIGTERM.
	base, stop := bootDaemon(t, dir, "-state-dir", stateDir, "-state-interval", "1h")
	h0 := waitFor(t, base, "first snapshot", func(h health) bool {
		return h.Status == "ok" && h.Runs == len(ds1.Runs)
	})
	if r := soleRestore(t, h0); r.Mode != "cold" {
		t.Fatalf("first life restore = %+v, want mode cold", r)
	}
	writeDataset(t, dir, 2, 32)
	h1 := waitFor(t, base, "growth while up", func(h health) bool {
		return h.Status == "ok" && h.Runs > h0.Runs
	})
	stop()
	if _, err := os.Stat(filepath.Join(stateDir, "state.ldv")); err != nil {
		t.Fatalf("no state file after shutdown: %v", err)
	}

	// The archive grows while the daemon is down.
	writeDataset(t, dir, 4, 33)

	// Second life: warm restore, epoch continues, growth ingested.
	base2, stop2 := bootDaemon(t, dir, "-state-dir", stateDir)
	defer stop2()
	h2 := waitFor(t, base2, "warm snapshot with growth", func(h health) bool {
		return h.Status == "ok" && h.Runs > h1.Runs
	})
	r2 := soleRestore(t, h2)
	if r2.Mode != "warm" {
		t.Fatalf("second life restore = %+v, want mode warm", r2)
	}
	if r2.Epoch < h1.Epoch {
		t.Errorf("restored epoch %d, want at least %d, the first life's epoch after its growth: SIGTERM did not save", r2.Epoch, h1.Epoch)
	}
	if h2.Epoch <= r2.Epoch {
		t.Errorf("epoch did not continue across restart: %d -> %d", r2.Epoch, h2.Epoch)
	}
	resp, err := http.Get(base2 + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(mbody), "logdiver_warm_restart 1") {
		t.Errorf("metrics missing warm-restart gauge:\n%s", mbody)
	}
}

// refusedBoot runs a daemon boot that must fail and returns its error. A
// boot that binds its listener instead fails the test and is stopped with
// SIGTERM, and one that neither fails nor stops within ten seconds fails it
// too, so a wrong success names its assertion instead of serving until the
// test binary's timeout.
func refusedBoot(t *testing.T, args ...string) error {
	t.Helper()
	errCh := make(chan error, 1)
	go func() {
		errCh <- run(args, func(addr string) {
			t.Errorf("daemon bound %s; the boot should have been refused", addr)
			_ = syscall.Kill(syscall.Getpid(), syscall.SIGTERM)
		})
	}()
	select {
	case err := <-errCh:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("daemon neither refused to boot nor stopped within 10 s")
		return nil
	}
}

// TestDaemonRestoreFallback is the crash-injection policy at daemon level:
// an unusable state file must cold-rebuild (with provenance) in lenient
// mode and refuse to start in strict mode — never crash, never serve wrong
// numbers.
func TestDaemonRestoreFallback(t *testing.T) {
	dir := t.TempDir()
	ds := writeDataset(t, dir, 0, 31)

	corrupt := func(t *testing.T) string {
		stateDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(stateDir, "state.ldv"), []byte("not a state file"), 0o644); err != nil {
			t.Fatal(err)
		}
		return stateDir
	}

	t.Run("lenient-falls-back-cold", func(t *testing.T) {
		base, stop := bootDaemon(t, dir, "-state-dir", corrupt(t))
		defer stop()
		h := waitFor(t, base, "cold rebuild", func(h health) bool {
			return h.Status == "ok" && h.Runs == len(ds.Runs)
		})
		if r := soleRestore(t, h); r.Mode != "cold-fallback" || r.Detail == "" {
			t.Fatalf("restore = %+v, want cold-fallback with a reason", r)
		}
	})

	t.Run("strict-refuses", func(t *testing.T) {
		err := refusedBoot(t,
			"-listen", "127.0.0.1:0",
			"-data-dir", dir,
			"-machine", "small",
			"-parse-mode", "strict",
			"-state-dir", corrupt(t),
		)
		if err == nil || !strings.Contains(err.Error(), "state.ldv") {
			t.Fatalf("strict boot over corrupt state: err = %v, want provenance error naming the file", err)
		}
	})

	t.Run("strict-refuses-fingerprint-skew", func(t *testing.T) {
		// A valid state written under lenient mode must not restore into a
		// strict daemon: the fingerprint pins the parse policy.
		stateDir := t.TempDir()
		base, stop := bootDaemon(t, dir, "-state-dir", stateDir, "-state-interval", "10ms")
		waitFor(t, base, "snapshot", func(h health) bool { return h.Status == "ok" && h.Runs > 0 })
		stop()
		err := refusedBoot(t,
			"-listen", "127.0.0.1:0",
			"-data-dir", dir,
			"-machine", "small",
			"-parse-mode", "strict",
			"-state-dir", stateDir,
		)
		if err == nil || !strings.Contains(err.Error(), "parse mode") {
			t.Fatalf("strict boot over lenient state: err = %v, want fingerprint mismatch", err)
		}
	})
}

// fetch GETs url (with an optional If-None-Match) and returns status, ETag
// and body.
func fetch(t *testing.T, url, ifNoneMatch string) (int, string, string) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("ETag"), string(body)
}

// TestDataDirMatchesBareSyncer pins what the deleted Syncer-only daemon
// runtime served by what replaces it: the same archive ingested by a bare
// store.Syncer behind serve.Config{Store} and by `logdiverd -data-dir` (a
// one-shard fleet.Manager) answers every view with identical bytes; the
// /v1/fleet/ family adds exactly the fleet object, and ?machine=<profile>
// answers on both families under the shard's own entity tag.
func TestDataDirMatchesBareSyncer(t *testing.T) {
	dir := t.TempDir()
	ds := writeDataset(t, dir, 0, 31)

	top, err := machine.New(machine.Small())
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	sy, err := store.NewSyncer(store.SyncerConfig{
		Tailer: store.NewTailer(dir), Store: st, Topology: top, Options: core.Options{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if installed, err := sy.Sync(); err != nil || !installed {
		t.Fatalf("bare syncer: installed=%v err=%v", installed, err)
	}
	bare, err := serve.New(serve.Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	ref := httptest.NewServer(bare)
	defer ref.Close()

	base, stop := bootDaemon(t, dir)
	defer stop()
	waitFor(t, base, "first snapshot", func(h health) bool {
		return h.Status == "ok" && h.Runs == len(ds.Runs)
	})

	for _, path := range []string{
		"/v1/outcomes", "/v1/scaling?class=xe", "/v1/scaling?class=xk", "/v1/mtti", "/v1/categories",
		"/v1/runs", fmt.Sprintf("/v1/runs/%d", ds.Runs[len(ds.Runs)/2].ApID),
	} {
		wantCode, wantTag, want := fetch(t, ref.URL+path, "")
		code, tag, got := fetch(t, base+path, "")
		if code != http.StatusOK || code != wantCode || tag != wantTag || got != want {
			t.Errorf("%s: daemon answered %d %s, bare syncer %d %s; bodies equal: %v\n%s",
				path, code, tag, wantCode, wantTag, got == want, got)
		}
		if !strings.HasPrefix(path, "/v1/runs") {
			// The fleet family: the same members, then the fleet object.
			_, ftag, fleetBody := fetch(t, base+strings.Replace(path, "/v1/", "/v1/fleet/", 1), "")
			const fleetObj = `,
  "fleet": {
    "partial": false,
    "shards": [
      {
        "machine": "small",
        "epoch": 1
      }
    ]
  }
}
`
			if wantFleet := strings.TrimSuffix(want, "\n}\n") + fleetObj; fleetBody != wantFleet || ftag != wantTag {
				t.Errorf("fleet %s (%s):\n%s\nwant (%s):\n%s", path, ftag, fleetBody, wantTag, wantFleet)
			}
			// ?machine= on both families: the shard's own snapshot, which for
			// a fleet of one holds the same numbers under the same epoch.
			sep := "?"
			if strings.Contains(path, "?") {
				sep = "&"
			}
			for _, p := range []string{path, strings.Replace(path, "/v1/", "/v1/fleet/", 1)} {
				url := base + p + sep + "machine=small"
				code, tag, got := fetch(t, url, "")
				if code != http.StatusOK || tag != `"small-1"` || got != want {
					t.Errorf("%s: %d %s, want 200 \"small-1\" and the merged view's bytes\n%s", url, code, tag, got)
				}
				if code, _, body := fetch(t, url, tag); code != http.StatusNotModified || body != "" {
					t.Errorf("%s revalidation: %d with %d body bytes, want empty 304", url, code, len(body))
				}
			}
		}
	}
	if code, _, _ := fetch(t, base+"/v1/outcomes?machine=bluewaters", ""); code != http.StatusNotFound {
		t.Errorf("unknown machine: status %d, want 404", code)
	}
}

// TestDaemonSyncFailureDegrades pins the one policy decision of the single
// topology: a sync error does not exit a -data-dir daemon. Its shard turns
// failed, /v1/health turns degraded with the error in the shard row, the
// last good snapshot keeps serving, and a later good round heals it.
func TestDaemonSyncFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	ds := writeDataset(t, dir, 0, 31)
	base, stop := bootDaemon(t, dir)
	defer stop()
	waitFor(t, base, "first snapshot", func(h health) bool { return h.Status == "ok" && h.Runs == len(ds.Runs) })

	// A directory where syslog.log was stats fine and fails to read.
	syslog := filepath.Join(dir, store.SyslogFile)
	if err := os.Rename(syslog, syslog+".aside"); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(syslog, 0o755); err != nil {
		t.Fatal(err)
	}
	h := waitFor(t, base, "degraded health", func(h health) bool { return h.Status == "degraded" })
	if sh := h.Fleet.Shards[0]; sh.Status != "failed" || sh.Error == "" || !h.Fleet.Partial || h.Runs != len(ds.Runs) {
		t.Fatalf("degraded health: runs %d, fleet %+v", h.Runs, h.Fleet)
	}
	if code, _, body := fetch(t, base+"/v1/outcomes", ""); code != http.StatusOK {
		t.Fatalf("outcomes while degraded: %d %s", code, body)
	}

	if err := os.Remove(syslog); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(syslog+".aside", syslog); err != nil {
		t.Fatal(err)
	}
	waitFor(t, base, "healed health", func(h health) bool {
		return h.Status == "ok" && !h.Fleet.Partial && h.Fleet.Shards[0].Status == "ok"
	})
}

func TestDaemonFlagValidation(t *testing.T) {
	if err := run([]string{"-listen", "127.0.0.1:0"}, nil); err == nil {
		t.Error("neither -data-dir nor -fleet-config accepted")
	}
	if err := run([]string{"-data-dir", t.TempDir(), "-fleet-config", "fleet.conf"}, nil); err == nil {
		t.Error("-data-dir with -fleet-config accepted")
	}
	if err := run([]string{"-fleet-config", "fleet.conf", "-state-dir", t.TempDir()}, nil); err == nil {
		t.Error("-state-dir with -fleet-config accepted")
	}
	if err := run([]string{"-fleet-config", filepath.Join(t.TempDir(), "missing.conf")}, nil); err == nil {
		t.Error("missing fleet config file accepted")
	}
	if err := run([]string{"-data-dir", t.TempDir(), "-poll-interval", "-1s"}, nil); err == nil {
		t.Error("negative poll interval accepted")
	}
	if err := run([]string{"-data-dir", t.TempDir(), "-machine", "nope"}, nil); err == nil {
		t.Error("unknown machine accepted")
	}
	// The accounting zone is retired from the flags and the config file.
	if err := run([]string{"-data-dir", t.TempDir(), "-tz", "UTC"}, nil); err == nil || !strings.Contains(err.Error(), "tz") {
		t.Errorf("-tz UTC: err %v, want one naming tz", err)
	}
	tzConf := filepath.Join(t.TempDir(), "fleet.conf")
	if err := os.WriteFile(tzConf, []byte("[shard a]\narchive-dir = a\ntz = UTC\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-fleet-config", tzConf}, nil); err == nil || !strings.Contains(err.Error(), `"tz"`) {
		t.Errorf("fleet config with tz: err %v, want one naming tz", err)
	}
	// So are the worker count, the rate-limit burst and the shed hint:
	// GOMAXPROCS sets the first, the other two derive from -rate-limit and
	// a fixed Retry-After: 1.
	for _, flag := range [][]string{{"-parallelism", "2"}, {"-rate-burst", "3"}, {"-retry-after", "2s"}} {
		err := run(append([]string{"-data-dir", t.TempDir()}, flag...), nil)
		if err == nil || !strings.Contains(err.Error(), flag[0][1:]) {
			t.Errorf("%s %s: err %v, want one naming %s", flag[0], flag[1], err, flag[0][1:])
		}
	}
	if err := run([]string{"-version"}, nil); err != nil {
		t.Errorf("-version: %v", err)
	}
}

// TestDaemonServeKnobs boots the daemon with the serving-tier flags and
// exercises each through the real HTTP surface: epoch ETag caching with
// 304 revalidation, per-client rate limiting with 429 + Retry-After and
// the burst derived from the rate (⌈2×3⌉ = 6 tokens), and health staying
// reachable while the client is shed.
func TestDaemonServeKnobs(t *testing.T) {
	dir := t.TempDir()
	writeDataset(t, dir, 0, 31)
	base, stop := bootDaemon(t, dir,
		"-rate-limit", "3", "-max-inflight", "8")
	defer stop()
	waitFor(t, base, "first snapshot", func(h health) bool { return h.Status == "ok" && h.Runs > 0 })

	// Cached response with an epoch ETag; conditional refetch is a 304.
	// Both are admitted: they take the bucket's first two tokens.
	first := time.Now()
	resp, err := http.Get(base + "/v1/outcomes")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if resp.StatusCode != http.StatusOK || etag == "" {
		t.Fatalf("outcomes: status %d etag %q", resp.StatusCode, etag)
	}
	req, _ := http.NewRequest("GET", base+"/v1/outcomes", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("conditional refetch: status %d, %d body bytes, want empty 304", resp.StatusCode, len(body))
	}

	// Hammer past the 6-token bucket: a 429 with Retry-After must appear.
	admitted := 2
	var shed *http.Response
	for i := 0; i < 20 && shed == nil; i++ {
		r, err := http.Get(base + "/v1/outcomes")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		switch r.StatusCode {
		case http.StatusOK:
			admitted++
		case http.StatusTooManyRequests:
			shed = r
		default:
			t.Fatalf("request %d: status %d", i, r.StatusCode)
		}
	}
	if shed == nil {
		t.Fatal("20 rapid requests through a 6-token bucket never shed")
	}
	// A full bucket of 6 admits at least 6 before the first shed, and at
	// most 6 plus the 3 tokens a second that accrued meanwhile.
	refilled := int(3 * time.Since(first).Seconds())
	if admitted < 6 || admitted > 6+refilled {
		t.Errorf("%d requests admitted before the first 429, want 6 to %d (burst ⌈2×3⌉ = 6)", admitted, 6+refilled)
	}
	if ra := shed.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}

	// Health stays reachable while the data endpoints shed this client.
	if h, err := getHealth(base); err != nil || h.Status != "ok" {
		t.Fatalf("health during shedding: %+v, %v", h, err)
	}
}

// TestDaemonFleetEndToEnd boots the daemon in fleet mode over two shard
// archive dirs: readiness with a full shard section, merged and per-machine
// fleet endpoints, a single-shard append advancing only that shard's epoch,
// and graceful shutdown persisting per-shard state.
func TestDaemonFleetEndToEnd(t *testing.T) {
	machines := gen.Fleet(2, 1, 23)
	for i := range machines {
		machines[i].Config.Workload.JobsPerDay = 60
	}
	root := t.TempDir()
	var conf strings.Builder
	for _, m := range machines {
		ds, err := gen.Generate(m.Config)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.WriteDir(filepath.Join(root, m.Name)); err != nil {
			t.Fatal(err)
		}
		// Relative paths prove LoadConfig resolution against the file dir.
		fmt.Fprintf(&conf, "[shard %s]\narchive-dir = %s\nmachine = small\nstate-dir = %s\n",
			m.Name, m.Name, filepath.Join("state", m.Name))
	}
	confPath := filepath.Join(root, "fleet.conf")
	if err := os.WriteFile(confPath, []byte(conf.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	addrCh := make(chan string, 1)
	errCh := make(chan error, 1)
	go func() {
		errCh <- run([]string{
			"-listen", "127.0.0.1:0",
			"-fleet-config", confPath,
			"-poll-interval", "100ms",
			"-state-interval", "10ms",
		}, func(addr string) { addrCh <- addr })
	}()
	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case err := <-errCh:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never bound its listener")
	}

	h := waitFor(t, base, "full fleet", func(h health) bool {
		if h.Status != "ok" || h.Fleet == nil || h.Fleet.Partial {
			return false
		}
		for _, sh := range h.Fleet.Shards {
			if sh.Status != "ok" {
				return false
			}
		}
		return len(h.Fleet.Shards) == 2
	})
	if h.Fleet.FleetEpoch == 0 {
		t.Fatal("fleet epoch still 0 after full sync")
	}

	// Merged and per-machine fleet endpoints answer 200 JSON.
	paths := []string{
		"/v1/fleet/outcomes", "/v1/fleet/scaling?class=xe", "/v1/fleet/scaling?class=xk",
		"/v1/fleet/mtti", "/v1/fleet/categories",
		"/v1/fleet/outcomes?machine=" + machines[0].Name,
	}
	for _, path := range paths {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d: %s", path, resp.StatusCode, body)
		}
		if !json.Valid(body) {
			t.Errorf("%s: invalid JSON: %q", path, body)
		}
	}

	// Appending a window to ONE shard advances only its epoch; the fleet
	// epoch advances because the vector changed.
	var before [2]uint64
	for i, sh := range h.Fleet.Shards {
		before[i] = sh.Epoch
	}
	grown := machines[1]
	ds, err := gen.Generate(grown.Window(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.AppendDir(filepath.Join(root, grown.Name)); err != nil {
		t.Fatal(err)
	}
	h2 := waitFor(t, base, "single-shard epoch advance", func(h health) bool {
		return h.Fleet != nil && h.Fleet.Shards[1].Epoch > before[1]
	})
	if h2.Fleet.Shards[0].Epoch != before[0] {
		t.Errorf("untouched shard epoch moved: %d -> %d", before[0], h2.Fleet.Shards[0].Epoch)
	}
	if h2.Fleet.FleetEpoch <= h.Fleet.FleetEpoch {
		t.Errorf("fleet epoch did not advance: %d -> %d", h.Fleet.FleetEpoch, h2.Fleet.FleetEpoch)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("daemon exited with error: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not stop on SIGTERM")
	}

	// Shutdown persisted per-shard state into the config-relative dirs.
	for _, m := range machines {
		if _, err := os.Stat(filepath.Join(root, "state", m.Name, "state.ldv")); err != nil {
			t.Errorf("shard %s state not persisted: %v", m.Name, err)
		}
	}
}
