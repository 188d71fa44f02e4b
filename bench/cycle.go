package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"logdiver/internal/core"
	"logdiver/internal/fleet"
	"logdiver/internal/persist"
	"logdiver/internal/serve"
	"logdiver/internal/store"
	"logdiver/internal/whatif"
)

const queryConns = 2 // closed-loop clients, one keep-alive connection each

// bench is one workload at one seed, set up and ready to replay cycles.
type bench struct {
	spec    workloadSpec
	plan    plan
	seed    int64
	workDir string
	tr      *tracer
	stderr  io.Writer

	shards   []*shardFixture
	fleetCfg *fleet.Config
	gen      genStats // gen.bytes is the size of every shard's full archive
	coldSync time.Duration
	// preRestart is /v1/outcomes as served right after the cold sync of the
	// base archive; the restarted daemon must serve the same bytes.
	preRestart []byte
	// env and queries are fixed in the warm-up cycle and replayed verbatim.
	env     *queryEnv
	queries []request

	attempted, failed int
}

// check counts one correctness check and reports a failed one.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		if b.failed <= 20 {
			fmt.Fprintf(b.stderr, "bench: FAILED: "+format+"\n", args...)
		}
	}
}

func (b *bench) managerConfig() fleet.ManagerConfig {
	return fleet.ManagerConfig{
		Config: b.fleetCfg,
		// Lenient is the zero value; small_noisy depends on it.
		Options: core.Options{},
		// No periodic persist may land in a small round: only the daemon's
		// first-round-after-boot persist happens, in the restart phase.
		StateInterval: time.Hour,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(b.stderr, "bench: manager: "+format+"\n", args...)
		},
	}
}

// setUp generates the fixtures from the seed, lays the base archive on
// disk, cold-syncs it through a fleet manager and saves the persisted base
// state every cycle starts from.
func setUp(spec workloadSpec, seed int64, scale float64, workDir string, tr *tracer, stderr io.Writer) (*bench, error) {
	b := &bench{spec: spec, plan: spec.plan(seed, scale), seed: seed, workDir: workDir, tr: tr, stderr: stderr}
	if err := os.RemoveAll(workDir); err != nil {
		return nil, err
	}
	b.fleetCfg = &fleet.Config{}
	for _, sp := range b.plan.shards {
		fx, err := generateShard(sp, b.plan.mutateBudget, &b.gen)
		if err != nil {
			return nil, err
		}
		fx.dir = filepath.Join(workDir, fx.name, "logs")
		fx.stateDir = filepath.Join(workDir, fx.name, "state")
		if err := os.MkdirAll(fx.dir, 0o755); err != nil {
			return nil, err
		}
		for name, data := range fx.files(fx.base) {
			if err := os.WriteFile(filepath.Join(fx.dir, name), data, 0o644); err != nil {
				return nil, err
			}
		}
		b.shards = append(b.shards, fx)
		b.fleetCfg.Shards = append(b.fleetCfg.Shards, fleet.ShardConfig{
			Name: fx.name, ArchiveDir: fx.dir, Machine: fx.profile, StateDir: fx.stateDir,
		})
	}

	t0 := time.Now()
	mgr, err := fleet.NewManager(b.managerConfig())
	if err != nil {
		return nil, err
	}
	round := mgr.SyncRound(context.Background())
	b.coldSync = time.Since(t0)
	if err := roundErr(round); err != nil {
		return nil, fmt.Errorf("cold sync: %w", err)
	}
	mgr.PersistAll()
	for _, fx := range b.shards {
		fx.baseState, err = os.ReadFile(filepath.Join(fx.stateDir, persist.StateFile))
		if err != nil {
			return nil, fmt.Errorf("base state: %w", err)
		}
	}
	srv, err := serve.New(serve.Config{Fleet: mgr})
	if err != nil {
		return nil, err
	}
	status, body := serveLocal(srv, get("/v1/outcomes"))
	if status != http.StatusOK {
		return nil, fmt.Errorf("cold sync: /v1/outcomes answered %d", status)
	}
	b.preRestart = stripEpoch(body)
	return b, nil
}

func (fx *shardFixture) files(a archive) map[string][]byte {
	return map[string][]byte{store.AccountingFile: a.acc, store.ApsysFile: a.aps, store.SyslogFile: a.sys}
}

// reset puts every shard back into the base state: archives truncated to
// the base size (same inode, so the restored tail offsets stay valid) and
// the saved state file restored.
func (b *bench) reset() error {
	for _, fx := range b.shards {
		for name, data := range fx.files(fx.base) {
			if err := os.Truncate(filepath.Join(fx.dir, name), int64(len(data))); err != nil {
				return err
			}
		}
		if err := os.WriteFile(filepath.Join(fx.stateDir, persist.StateFile), fx.baseState, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// appendArchive appends a window's bytes to the shard's three files.
func (fx *shardFixture) appendArchive(a archive) error {
	for name, data := range fx.files(a) {
		f, err := os.OpenFile(filepath.Join(fx.dir, name), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			return err
		}
		if _, err := f.Write(data); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func roundErr(r fleet.Round) error {
	for _, sr := range r.Shards {
		if sr.Err != nil {
			return fmt.Errorf("shard %s: %w", sr.Name, sr.Err)
		}
	}
	return nil
}

// ---- serving helpers ----

// recorder is a minimal in-process http.ResponseWriter.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.hdr }
func (r *recorder) WriteHeader(c int) {
	if r.status == 0 {
		r.status = c
	}
}
func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}

func (q request) httpRequest(base string) *http.Request {
	req, err := http.NewRequest(q.method, base+q.path, http.NoBody)
	if err != nil {
		panic(err) // scripted paths are well-formed
	}
	if q.gzip {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	if q.etag != "" {
		req.Header.Set("If-None-Match", q.etag)
	}
	return req
}

// serveLocal answers one request through ServeHTTP without a socket.
func serveLocal(h http.Handler, q request) (int, []byte) {
	rec := &recorder{hdr: make(http.Header)}
	h.ServeHTTP(rec, q.httpRequest("http://bench.local"))
	return rec.status, rec.body.Bytes()
}

// liveServer is a serve.Server listening on a loopback port.
type liveServer struct {
	url    string
	cancel context.CancelFunc
	done   chan error
}

func startServer(srv *serve.Server) (*liveServer, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	ls := &liveServer{url: "http://" + l.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { ls.done <- srv.Serve(ctx, l, 5*time.Second) }()
	return ls, nil
}

// stop shuts the server down and waits for it.
func (ls *liveServer) stop() error {
	ls.cancel()
	return <-ls.done
}

// client is one closed-loop caller on one keep-alive connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends q; keep receives the body when non-nil, otherwise the body is
// read and dropped.
func (c *client) do(q request, keep *bytes.Buffer) (*http.Response, error) {
	resp, err := c.hc.Do(q.httpRequest(c.base))
	if err != nil {
		return nil, err
	}
	var dst io.Writer = io.Discard
	if keep != nil {
		keep.Reset()
		dst = keep
	}
	_, err = io.Copy(dst, resp.Body)
	resp.Body.Close()
	return resp, err
}

// mustGet fetches path and counts anything but a 200 as a failed operation.
func (b *bench) mustGet(c *client, path string) []byte {
	var body bytes.Buffer
	resp, err := c.do(get(path), &body)
	b.check(err == nil && resp.StatusCode == http.StatusOK, "GET %s: %v %v", path, statusOf(resp), err)
	return body.Bytes()
}

func statusOf(resp *http.Response) int {
	if resp == nil {
		return 0
	}
	return resp.StatusCode
}

var (
	epochRE  = regexp.MustCompile(`"epoch":\s*(\d+)`)
	cursorRE = regexp.MustCompile(`"next_cursor":"([^"]+)"`)
)

// stripEpoch blanks the epoch field, the only part of a view that depends
// on how many installs led to the snapshot rather than on its content.
func stripEpoch(body []byte) []byte { return epochRE.ReplaceAll(body, []byte(`"epoch": 0`)) }

func epochOf(body []byte) uint64 {
	m := epochRE.FindSubmatch(body)
	if m == nil {
		return 0
	}
	n, _ := strconv.ParseUint(string(m[1]), 10, 64)
	return n
}

// newClients opens the cycle's queryConns closed-loop callers.
func newClients(base string) []*client {
	clients := make([]*client, queryConns)
	for i := range clients {
		clients[i] = newClient(base)
	}
	return clients
}

// runQueries replays reqs closed-loop: client i sends requests i,
// i+len(clients), ... and waits for each reply. It returns the wall time,
// per-request latencies and the number of wrong statuses.
func runQueries(clients []*client, reqs []request) (time.Duration, []time.Duration, int) {
	lat := make([]time.Duration, len(reqs))
	bad := make([]int, len(clients))
	var wg sync.WaitGroup
	t0 := time.Now()
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for i := ci; i < len(reqs); i += len(clients) {
				q0 := time.Now()
				resp, err := c.do(reqs[i], nil)
				lat[i] = time.Since(q0)
				if err != nil || resp.StatusCode != reqs[i].want {
					bad[ci]++
				}
			}
		}(ci, c)
	}
	wg.Wait()
	wall := time.Since(t0)
	failed := 0
	for _, n := range bad {
		failed += n
	}
	return wall, lat, failed
}

// ---- one cycle ----

// cycleResult is what one replay of the script measured.
type cycleResult struct {
	batchP1, batchPN time.Duration
	restart          time.Duration
	onlineWall       time.Duration
	onlineBytes      int
	smallRounds      []time.Duration
	queryWall        time.Duration
	queryLat         []time.Duration
	whatif           []time.Duration
	canary           time.Duration
	wall             time.Duration

	// traced cycles only
	loadRequests       int // sent by the looping clients of a loaded cycle
	loadWall           time.Duration
	cacheRenders, shed float64
	persistAll         time.Duration
	gc                 map[string]gcDelta
}

type gcDelta struct {
	pause  time.Duration
	cycles uint32
	heapMB float64
}

var phaseNames = []string{"batch", "restart", "online", "query", "whatif"}

// phase runs fn as one timed phase: GC first, so every phase starts from a
// collected heap.
func (b *bench) phase(res *cycleResult, name string, fn func()) {
	runtime.GC()
	b.accounted(res, name, fn)
}

// accounted runs fn inside a phase span and, when tracing, adds the GC work
// done meanwhile to the phase's account.
func (b *bench) accounted(res *cycleResult, name string, fn func()) {
	if !b.tr.on {
		fn()
		return
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	end := b.tr.begin("phase." + name)
	fn()
	end()
	runtime.ReadMemStats(&m1)
	d := res.gc[name]
	d.pause += time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	d.cycles += m1.NumGC - m0.NumGC
	d.heapMB = float64(m1.HeapAlloc) / 1e6
	res.gc[name] = d
}

var canaryBuf = make([]byte, 16<<20)

// canary hashes a fixed 64 MB: work that no change to the repository can
// move, so a drift between two sets of runs shows as the machine's.
func canary() time.Duration {
	t0 := time.Now()
	h := sha256.New()
	for i := 0; i < 4; i++ {
		h.Write(canaryBuf)
	}
	h.Sum(nil)
	return time.Since(t0)
}

// batchViews analyzes every shard's full archive from memory at the given
// parallelism, folds the snapshots as the fleet manager does, installs the
// result and renders the four views.
func (b *bench) batchViews(parallelism int, label string) ([][]byte, error) {
	merged := store.Zero()
	for _, fx := range b.shards {
		end := b.tr.begin("core.Analyze." + label)
		res, err := core.Analyze(core.Archives{
			Accounting: bytes.NewReader(fx.full.acc),
			Apsys:      bytes.NewReader(fx.full.aps),
			Syslog:     bytes.NewReader(fx.full.sys),
		}, fx.top, core.Options{Parallelism: parallelism})
		end()
		if err != nil {
			return nil, err
		}
		end = b.tr.begin("store.Build")
		snap, err := store.Build(res, fx.top, store.IngestStats{}, time.Now())
		end()
		if err != nil {
			return nil, err
		}
		snap.Machine = fx.name
		snap.Epoch = 1
		end = b.tr.begin("store.Merge")
		merged = store.Merge(merged, snap)
		end()
	}
	st := store.New()
	st.Install(merged)
	srv, err := serve.New(serve.Config{Store: st})
	if err != nil {
		return nil, err
	}
	end := b.tr.begin("serve.views")
	defer end()
	views := make([][]byte, len(viewPaths))
	for i, p := range viewPaths {
		status, body := serveLocal(srv, get(p))
		if status != http.StatusOK {
			return nil, fmt.Errorf("batch view %s answered %d", p, status)
		}
		views[i] = stripEpoch(body)
	}
	return views, nil
}

// runCycle replays the script once from the base state. loaded adds two
// looping query clients during the small rounds (a traced diagnostic).
func (b *bench) runCycle(loaded bool) (*cycleResult, error) {
	res := &cycleResult{gc: map[string]gcDelta{}}
	if err := b.reset(); err != nil {
		return nil, err
	}
	endCycle := b.tr.begin("cycle")
	defer endCycle()
	cycleStart := time.Now()
	res.canary = canary()

	// 1. batch
	var ref [][]byte
	var phaseErr error
	b.phase(res, "batch", func() {
		t0 := time.Now()
		p1, err := b.batchViews(1, "p1")
		res.batchP1 = time.Since(t0)
		if err != nil {
			phaseErr = err
			return
		}
		runtime.GC()
		t0 = time.Now()
		pn, err := b.batchViews(0, "pn")
		res.batchPN = time.Since(t0)
		if err != nil {
			phaseErr = err
			return
		}
		for i := range viewPaths {
			b.check(bytes.Equal(p1[i], pn[i]), "batch %s differs between Parallelism 1 and %d", viewPaths[i], runtime.GOMAXPROCS(0))
		}
		ref = pn
	})
	if phaseErr != nil {
		return nil, phaseErr
	}

	// 2. restart
	var (
		mgr  *fleet.Manager
		live *liveServer
		srv  *serve.Server
		ctl  *client   // the driving goroutine's connection
		qcs  []*client // the query phase's connections, kept across bursts
	)
	ctx := context.Background()
	b.phase(res, "restart", func() {
		t0 := time.Now()
		end := b.tr.begin("fleet.NewManager")
		mgr, phaseErr = fleet.NewManager(b.managerConfig())
		end()
		if phaseErr != nil {
			return
		}
		end = b.tr.begin("fleet.SyncRound.first")
		round := mgr.SyncRound(ctx)
		end()
		if srv, phaseErr = serve.New(serve.Config{Fleet: mgr}); phaseErr != nil {
			return
		}
		if live, phaseErr = startServer(srv); phaseErr != nil {
			return
		}
		ctl, qcs = newClient(live.url), newClients(live.url)
		end = b.tr.begin("serve.first200")
		body := b.mustGet(ctl, "/v1/outcomes")
		end()
		res.restart = time.Since(t0)

		b.check(roundErr(round) == nil, "restart round: %v", roundErr(round))
		for _, st := range mgr.View().Shards {
			b.check(st.Restore.Mode == "warm", "shard %s restored %q (%s), want warm", st.Name, st.Restore.Mode, st.Restore.Detail)
		}
		b.check(bytes.Equal(stripEpoch(body), b.preRestart), "/v1/outcomes after restart differs from before")
	})
	if phaseErr != nil {
		return nil, phaseErr
	}
	defer func() {
		for _, c := range append(qcs, ctl) {
			c.close()
		}
		if err := live.stop(); err != nil {
			fmt.Fprintf(b.stderr, "bench: server shutdown: %v\n", err)
		}
	}()
	if b.env == nil {
		b.learnEnv(mgr)
	}

	// 3. online (+ 4. query bursts, on workloads that query between rounds)
	round := func(label string, appends map[*shardFixture]archive) time.Duration {
		n := 0
		for fx, a := range appends {
			if err := fx.appendArchive(a); err != nil && phaseErr == nil {
				phaseErr = err
			}
			n += a.size()
		}
		res.onlineBytes += n
		t0 := time.Now()
		end := b.tr.begin("fleet.SyncRound." + label)
		r := mgr.SyncRound(ctx)
		end()
		end = b.tr.begin("serve.epoch_visible")
		body := b.mustGet(ctl, "/v1/outcomes")
		end()
		wall := time.Since(t0)
		res.onlineWall += wall
		b.check(roundErr(r) == nil, "%s round: %v", label, roundErr(r))
		b.check(r.Installed && epochOf(body) == r.FleetEpoch, "%s round: served epoch %d, installed %v epoch %d", label, epochOf(body), r.Installed, r.FleetEpoch)
		return wall
	}
	var stopLoad func() (int, time.Duration)
	b.phase(res, "online", func() {
		catchUp := map[*shardFixture]archive{}
		for _, fx := range b.shards {
			catchUp[fx] = fx.catchUp
		}
		round("catchup", catchUp)
		if loaded {
			stopLoad = startLoad(qcs, b.queries)
		}
		next := make([]int, len(b.shards))
		for r := 0; r < b.plan.smallRounds && phaseErr == nil; r++ {
			si := r % len(b.shards)
			fx := b.shards[si]
			wall := round("small", map[*shardFixture]archive{fx: fx.small[next[si]]})
			next[si]++
			res.smallRounds = append(res.smallRounds, wall)
			if b.plan.burst && !loaded {
				// Bursts run between the rounds, so on burst workloads the
				// online account includes the query account.
				b.accounted(res, "query", func() {
					b.queryPhase(res, ctl, qcs, b.queries[r*b.plan.queryN:(r+1)*b.plan.queryN])
				})
			}
		}
	})
	if stopLoad != nil {
		res.loadRequests, res.loadWall = stopLoad()
	}
	if phaseErr != nil {
		return nil, phaseErr
	}
	for i, p := range viewPaths {
		b.check(bytes.Equal(stripEpoch(b.mustGet(ctl, p)), ref[i]), "online %s differs from core.Analyze over the same bytes", p)
	}
	if loaded {
		return res, nil
	}

	// 4. query
	if !b.plan.burst {
		// The repeated what-if scenario of the analyst mix is primed, so
		// every timed request of it is a hit.
		resp, err := ctl.do(request{method: http.MethodPost, path: fmt.Sprintf("/v1/whatif?seed=%d", analystWhatifSeed)}, nil)
		b.check(err == nil && resp.StatusCode == http.StatusOK, "priming what-if: %v %v", statusOf(resp), err)
		b.phase(res, "query", func() { b.queryPhase(res, ctl, qcs, b.queries) })
	}

	// 5. what-if misses
	var first bytes.Buffer
	b.phase(res, "whatif", func() {
		for k := 0; k < b.plan.whatifK; k++ {
			q := request{method: http.MethodPost, path: fmt.Sprintf("/v1/whatif?seed=%d", 1000+k)}
			var keep *bytes.Buffer
			if k == 0 {
				keep = &first
			}
			t0 := time.Now()
			resp, err := ctl.do(q, keep)
			res.whatif = append(res.whatif, time.Since(t0))
			b.check(err == nil && resp.StatusCode == http.StatusOK, "POST %s: %v %v", q.path, statusOf(resp), err)
		}
	})
	b.checkNoop(first.Bytes(), mgr.View().Merged.TotalRuns())
	if b.plan.mutateBudget > 0 {
		parse := mgr.View().Merged.Result.Parse
		skipped := parse.AccountingMalformed + parse.ApsysMalformed + parse.SyslogMalformed
		b.check(skipped > 0, "lenient mode skipped no line of a corrupted archive")
	}

	res.wall = time.Since(cycleStart)
	if b.tr.on {
		res.shed = scrapeMetrics(b.mustGet(ctl, "/metrics"))["logdiver_http_shed_total"]
		res.persistAll = b.timed("fleet.PersistAll", mgr.PersistAll)
	}
	return res, nil
}

// queryPhase replays reqs over the query connections and accounts the
// phase. Called once per cycle, or once per small round on burst workloads.
func (b *bench) queryPhase(res *cycleResult, ctl *client, qcs []*client, reqs []request) {
	renders := func() float64 {
		if !b.tr.on {
			return 0
		}
		return scrapeMetrics(b.mustGet(ctl, "/metrics"))["logdiver_cache_renders_total"]
	}
	before := renders()
	end := b.tr.begin("serve.queries")
	wall, lat, bad := runQueries(qcs, reqs)
	end()
	res.queryWall += wall
	res.queryLat = append(res.queryLat, lat...)
	b.attempted += len(reqs)
	b.failed += bad
	if bad > 0 {
		fmt.Fprintf(b.stderr, "bench: FAILED: %d of %d scripted requests got the wrong status\n", bad, len(reqs))
	}
	res.cacheRenders += renders() - before
}

// startLoad loops the query clients over reqs until stopped and returns a
// function that stops them and reports requests sent and elapsed.
func startLoad(clients []*client, reqs []request) func() (int, time.Duration) {
	stop := make(chan struct{})
	counts := make([]int, len(clients))
	var wg sync.WaitGroup
	t0 := time.Now()
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for i := ci; ; i = (i + len(clients)) % len(reqs) {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.do(reqs[i], nil); err == nil {
					counts[ci]++
				}
			}
		}(ci, c)
	}
	return func() (int, time.Duration) {
		close(stop)
		wg.Wait()
		sent := 0
		for _, n := range counts {
			sent += n
		}
		return sent, time.Since(t0)
	}
}

// learnEnv records, from the restarted base state, what the query mixes
// address: run ids that exist in every later epoch, page cursors, shard
// names, and the entity tag the final epoch of a cycle will carry. It then
// fixes the scripted requests for every cycle.
func (b *bench) learnEnv(mgr *fleet.Manager) {
	snap := mgr.View().Merged
	env := &queryEnv{machines: mgr.Machines()}
	for _, r := range snap.Result.Runs {
		env.apids = append(env.apids, r.ApID)
	}
	// Walk the run list as a client would, collecting each page's
	// next_cursor token, so the cursor scheme stays opaque to the harness.
	if srv, err := serve.New(serve.Config{Fleet: mgr}); err == nil {
		path := "/v1/runs?limit=200"
		for {
			_, body := serveLocal(srv, get(path))
			m := cursorRE.FindSubmatch(body)
			if m == nil {
				break
			}
			env.cursors = append(env.cursors, string(m[1]))
			path = "/v1/runs?limit=200&cursor=" + string(m[1])
		}
	}
	// One install per round: restart, catch-up, then the small rounds.
	finalEpoch := snap.Epoch + 1 + uint64(b.plan.smallRounds)
	env.etag = `"` + strconv.FormatUint(finalEpoch, 10) + `"`
	b.env = env

	n := b.plan.queryN
	if b.plan.burst {
		n *= b.plan.smallRounds
	}
	b.queries = b.plan.mix(rand.New(rand.NewSource(b.seed)), env, n)
}

// checkNoop asserts the what-if report's no-op replay equals the measured
// baseline and covers every run of the snapshot.
func (b *bench) checkNoop(body []byte, totalRuns int) {
	var rep struct {
		Runs     int                 `json:"runs"`
		Measured []whatif.OutcomeRow `json:"measured"`
		Baseline struct {
			Outcomes []whatif.OutcomeRow `json:"outcomes"`
		} `json:"baseline"`
	}
	err := json.Unmarshal(body, &rep)
	b.check(err == nil && rep.Runs == totalRuns, "what-if report covers %d runs, snapshot has %d (%v)", rep.Runs, totalRuns, err)
	b.check(len(rep.Measured) > 0 && slices.Equal(rep.Measured, rep.Baseline.Outcomes), "what-if no-op policy differs from the measured baseline")
}

var metricLineRE = regexp.MustCompile(`(?m)^([a-z_]+)(?:\{[^}]*\})? ([0-9.eE+-]+)$`)

// scrapeMetrics sums every sample of each family of a /metrics page.
func scrapeMetrics(page []byte) map[string]float64 {
	out := map[string]float64{}
	for _, m := range metricLineRE.FindAllSubmatch(page, -1) {
		if v, err := strconv.ParseFloat(string(m[2]), 64); err == nil {
			out[string(m[1])] += v
		}
	}
	return out
}
