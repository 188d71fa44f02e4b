// Command loadgen drives a running logdiverd query tier with a seeded,
// deterministic request mix and reports latency percentiles, error rates,
// and achieved throughput. It is the measurement half of the serving-layer
// saturation story: run it at a concurrency at or beyond the daemon's
// -max-inflight bound and the report shows whether the server sheds
// promptly (shed_p99) while admitted requests stay fast (p99).
//
// Two generation modes:
//
//   - closed (default): -c workers each keep exactly one request in flight.
//     The achieved throughput line IS the max sustainable RPS at that
//     concurrency — a closed loop cannot outrun the server.
//   - open: requests depart on a fixed schedule at -rps regardless of how
//     fast responses come back, and latency is measured from the SCHEDULED
//     departure time, so queueing delay the server causes is charged to it
//     (no coordinated omission).
//
// The mix is deterministic for a given -seed: closed mode seeds one RNG per
// worker (seed+worker), open mode pre-generates the whole request schedule
// from one RNG. Latencies vary run to run; the request sequence does not.
//
// The report is a few human-readable lines on stdout: totals and achieved
// throughput, ok-latency percentiles, and the shed p99 when anything was
// shed. The exit status is the verdict: nonzero when no request succeeded
// or when more than one request in a thousand was an error. Latency and
// throughput are reported, not judged; bench/ owns those gates.
//
// Responses classify as: ok (200, 304), shed (429 or 503 bearing
// Retry-After — the server's honest overload answer, never an error), or
// error (transport failure, any other status, or a shed missing its
// Retry-After hint).
//
// The mix kinds fleet and fleet_machine hit the merged /v1/fleet/* views
// and per-machine shard views (-mix fleet=3,fleet_machine=2,...); every
// daemon serves them (-data-dir is a fleet of one). Preflight learns the
// shard machine names from the /v1/health fleet section.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

type config struct {
	baseURL  string
	mode     string
	workers  int
	requests int
	rps      float64
	duration time.Duration
	seed     int64
	mix      []mixEntry
	timeout  time.Duration
	wait     time.Duration
}

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func realMain() error {
	var (
		url      = flag.String("url", "http://127.0.0.1:8080", "base URL of the logdiverd query API")
		mode     = flag.String("mode", "closed", "generation mode: closed (fixed concurrency) or open (fixed arrival rate)")
		workers  = flag.Int("c", 8, "closed mode: concurrent workers; open mode: max outstanding requests")
		requests = flag.Int("n", 2000, "closed mode: total requests")
		rps      = flag.Float64("rps", 200, "open mode: arrival rate, requests per second")
		duration = flag.Duration("duration", 10*time.Second, "open mode: run length")
		seed     = flag.Int64("seed", 1, "RNG seed for the request mix")
		mixSpec  = flag.String("mix", defaultMix, "request mix, comma-separated kind=weight pairs")
		timeout  = flag.Duration("timeout", 10*time.Second, "per-request timeout")
		wait     = flag.Duration("wait", 10*time.Second, "max time to wait for the server to report healthy")
	)
	flag.Parse()

	mix, err := parseMix(*mixSpec)
	if err != nil {
		return err
	}
	cfg := config{
		baseURL: strings.TrimRight(*url, "/"), mode: *mode, workers: *workers,
		requests: *requests, rps: *rps, duration: *duration, seed: *seed,
		mix: mix, timeout: *timeout, wait: *wait,
	}
	if cfg.workers < 1 {
		return fmt.Errorf("-c must be at least 1")
	}

	client := &http.Client{Timeout: cfg.timeout}
	tg, err := preflight(client, cfg.baseURL, cfg.wait)
	if err != nil {
		return err
	}

	var res *results
	switch cfg.mode {
	case "closed":
		res = runClosed(cfg, client, tg)
	case "open":
		res = runOpen(cfg, client, tg)
	default:
		return fmt.Errorf("unknown -mode %q: want closed or open", cfg.mode)
	}
	writeSummary(os.Stdout, res)
	if len(res.okLat) == 0 {
		return fmt.Errorf("no request succeeded (%d errors of %d): is %s a logdiverd?",
			res.errs, res.total, cfg.baseURL)
	}
	return verdict(res)
}

// verdict fails a run whose error share exceeds one request in a thousand.
// Sheds are the server's honest overload answer and never count.
func verdict(r *results) error {
	if r.errs*1000 > r.total {
		return fmt.Errorf("%d errors in %d requests (%.2f%%): more than the 0.1%% a healthy run may have",
			r.errs, r.total, 100*float64(r.errs)/float64(r.total))
	}
	return nil
}

// defaultMix exercises every serving path: cached views, the paginated
// list, dynamic pages, run drill-downs, conditional revalidations, and
// gzip negotiation.
const defaultMix = "outcomes=3,scaling=2,mtti=1,categories=1,runs_list=2,runs_page=1,runs=1,cond=3,gzip=1"

// fleetMix adds the scatter-gather plane to the default mix: merged fleet
// views plus per-machine shard views. It works against any daemon; behind
// -data-dir the per-machine views all name the one shard.
const fleetMix = defaultMix + ",fleet=3,fleet_machine=2"

type mixEntry struct {
	kind   string
	weight int
}

var knownKinds = map[string]bool{
	"outcomes": true, "scaling": true, "mtti": true, "categories": true,
	"runs_list": true, "runs_page": true, "runs": true, "cond": true, "gzip": true,
	"fleet": true, "fleet_machine": true,
}

func parseMix(spec string) ([]mixEntry, error) {
	var mix []mixEntry
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad mix entry %q: want kind=weight", part)
		}
		kind = strings.TrimSpace(kind)
		if !knownKinds[kind] {
			return nil, fmt.Errorf("unknown mix kind %q", kind)
		}
		var w int
		if _, err := fmt.Sscanf(strings.TrimSpace(val), "%d", &w); err != nil || w < 1 {
			return nil, fmt.Errorf("bad mix weight %q: want a positive integer", part)
		}
		mix = append(mix, mixEntry{kind: kind, weight: w})
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("empty mix")
	}
	return mix, nil
}

func mixTotal(mix []mixEntry) int {
	total := 0
	for _, e := range mix {
		total += e.weight
	}
	return total
}

// plan is one concrete request: a path plus the conditional / encoding
// decorations the mix asked for.
type plan struct {
	path string
	cond bool // send If-None-Match with the last ETag seen
	gzip bool
}

// targets is what preflight learned about the server: real apids for run
// drill-downs and the daemon's shard machine names for per-machine views.
type targets struct {
	apids    []uint64
	machines []string
}

// pickPlan draws one request from the mix using rng. All randomness lives
// here, so the request sequence is a pure function of the seed.
func pickPlan(rng *rand.Rand, mix []mixEntry, total int, tg targets) plan {
	n := rng.Intn(total)
	kind := mix[len(mix)-1].kind
	for _, e := range mix {
		if n < e.weight {
			kind = e.kind
			break
		}
		n -= e.weight
	}
	switch kind {
	case "outcomes":
		return plan{path: "/v1/outcomes"}
	case "scaling":
		classes := []string{"xe", "xk"}
		return plan{path: "/v1/scaling?class=" + classes[rng.Intn(len(classes))]}
	case "mtti":
		return plan{path: "/v1/mtti"}
	case "categories":
		return plan{path: "/v1/categories"}
	case "runs_list":
		return plan{path: "/v1/runs"}
	case "runs_page":
		limits := []string{"25", "50", "250"}
		return plan{path: "/v1/runs?limit=" + limits[rng.Intn(len(limits))]}
	case "runs":
		if len(tg.apids) == 0 {
			return plan{path: "/v1/runs"}
		}
		return plan{path: fmt.Sprintf("/v1/runs/%d", tg.apids[rng.Intn(len(tg.apids))])}
	case "fleet":
		views := []string{"/v1/fleet/outcomes", "/v1/fleet/scaling?class=xe",
			"/v1/fleet/scaling?class=xk", "/v1/fleet/mtti", "/v1/fleet/categories"}
		return plan{path: views[rng.Intn(len(views))]}
	case "fleet_machine":
		if len(tg.machines) == 0 {
			return plan{path: "/v1/fleet/outcomes"}
		}
		return plan{path: "/v1/fleet/outcomes?machine=" + tg.machines[rng.Intn(len(tg.machines))]}
	case "cond":
		return plan{path: "/v1/outcomes", cond: true}
	default: // gzip
		return plan{path: "/v1/outcomes", gzip: true}
	}
}

// preflight waits for /v1/health to answer 200, learns the fleet's shard
// machine names from the health body (one for a -data-dir daemon), then
// learns a set of real apids from the first runs page so the mix can
// exercise drill-downs.
func preflight(client *http.Client, base string, wait time.Duration) (targets, error) {
	var tg targets
	deadline := time.Now().Add(wait)
	for {
		resp, err := client.Get(base + "/v1/health")
		if err == nil && resp.StatusCode == http.StatusOK {
			var health struct {
				Fleet *struct {
					Shards []struct {
						Name string `json:"name"`
					} `json:"shards"`
				} `json:"fleet"`
			}
			decErr := json.NewDecoder(resp.Body).Decode(&health)
			resp.Body.Close()
			if decErr == nil && health.Fleet != nil {
				for _, sh := range health.Fleet.Shards {
					tg.machines = append(tg.machines, sh.Name)
				}
			}
			break
		}
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		if time.Now().After(deadline) {
			if err != nil {
				return tg, fmt.Errorf("server not healthy after %s: %v", wait, err)
			}
			return tg, fmt.Errorf("server not healthy after %s", wait)
		}
		time.Sleep(100 * time.Millisecond)
	}
	resp, err := client.Get(base + "/v1/runs")
	if err != nil {
		return tg, err
	}
	defer resp.Body.Close()
	var page struct {
		Runs []struct {
			ApID uint64 `json:"apid"`
		} `json:"runs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		return tg, fmt.Errorf("decoding /v1/runs: %w", err)
	}
	for _, r := range page.Runs {
		tg.apids = append(tg.apids, r.ApID)
	}
	return tg, nil
}

// outcome is one request's classified result.
type outcome struct {
	lat   time.Duration
	class int // classOK, classShed, classErr
}

const (
	classOK = iota
	classShed
	classErr
)

// doRequest executes one planned request and classifies the response. The
// latency is measured from `from`, which the open loop sets to the
// scheduled departure time. etag carries the worker's last seen ETag in
// and out for conditional requests.
func doRequest(client *http.Client, base string, p plan, from time.Time, etag *string) outcome {
	req, err := http.NewRequest("GET", base+p.path, nil)
	if err != nil {
		return outcome{class: classErr}
	}
	if p.cond && *etag != "" {
		req.Header.Set("If-None-Match", *etag)
	}
	if p.gzip {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	resp, err := client.Do(req)
	if err != nil {
		return outcome{lat: time.Since(from), class: classErr}
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	lat := time.Since(from)
	switch resp.StatusCode {
	case http.StatusOK, http.StatusNotModified:
		if et := resp.Header.Get("ETag"); et != "" {
			*etag = et
		}
		return outcome{lat: lat, class: classOK}
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		if resp.Header.Get("Retry-After") == "" {
			// A shed without a hint is a contract violation, not load
			// shedding.
			return outcome{lat: lat, class: classErr}
		}
		return outcome{lat: lat, class: classShed}
	default:
		return outcome{lat: lat, class: classErr}
	}
}

// results aggregates a run. okLat and shedLat are sorted ascending.
type results struct {
	mode    string
	total   int
	okLat   []time.Duration
	shedLat []time.Duration
	errs    int
	elapsed time.Duration
}

func collect(mode string, outs []outcome, elapsed time.Duration) *results {
	res := &results{mode: mode, total: len(outs), elapsed: elapsed}
	for _, o := range outs {
		switch o.class {
		case classOK:
			res.okLat = append(res.okLat, o.lat)
		case classShed:
			res.shedLat = append(res.shedLat, o.lat)
		default:
			res.errs++
		}
	}
	sort.Slice(res.okLat, func(i, j int) bool { return res.okLat[i] < res.okLat[j] })
	sort.Slice(res.shedLat, func(i, j int) bool { return res.shedLat[i] < res.shedLat[j] })
	return res
}

// runClosed keeps cfg.workers requests in flight until cfg.requests have
// completed. Worker w draws its mix from seed+w.
func runClosed(cfg config, client *http.Client, tg targets) *results {
	total := mixTotal(cfg.mix)
	outs := make([]outcome, cfg.requests)
	var (
		wg   sync.WaitGroup
		next = make(chan int, cfg.workers)
	)
	began := time.Now()
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(w)))
			etag := ""
			for i := range next {
				p := pickPlan(rng, cfg.mix, total, tg)
				outs[i] = doRequest(client, cfg.baseURL, p, time.Now(), &etag)
			}
		}(w)
	}
	for i := 0; i < cfg.requests; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return collect("closed", outs, time.Since(began))
}

// runOpen fires requests on a fixed schedule at cfg.rps for cfg.duration.
// The whole schedule is drawn up front from one RNG, so the mix is
// deterministic; outstanding requests are bounded at 4x workers, and the
// wait for a slot counts into the request's latency (it is queueing the
// server caused).
func runOpen(cfg config, client *http.Client, tg targets) *results {
	interval := time.Duration(float64(time.Second) / cfg.rps)
	n := int(cfg.duration.Seconds() * cfg.rps)
	if n < 1 {
		n = 1
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	total := mixTotal(cfg.mix)
	plans := make([]plan, n)
	for i := range plans {
		plans[i] = pickPlan(rng, cfg.mix, total, tg)
	}

	outs := make([]outcome, n)
	sem := make(chan struct{}, 4*cfg.workers)
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		etag string
	)
	began := time.Now()
	for i := 0; i < n; i++ {
		sched := began.Add(time.Duration(i) * interval)
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, sched time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			mu.Lock()
			et := etag
			mu.Unlock()
			o := doRequest(client, cfg.baseURL, plans[i], sched, &et)
			if et != "" {
				mu.Lock()
				etag = et
				mu.Unlock()
			}
			outs[i] = o
		}(i, sched)
	}
	wg.Wait()
	return collect("open", outs, time.Since(began))
}

// percentile returns the q-quantile of sorted (nearest-rank); zero when
// empty.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// writeSummary renders the human-readable report.
func writeSummary(w io.Writer, r *results) {
	fmt.Fprintf(w, "loadgen: mode=%s total=%d ok=%d shed=%d errors=%d in %.2fs (%.1f req/s)\n",
		r.mode, r.total, len(r.okLat), len(r.shedLat), r.errs,
		r.elapsed.Seconds(), float64(r.total-r.errs)/r.elapsed.Seconds())
	fmt.Fprintf(w, "loadgen: latency p50=%s p99=%s p999=%s max=%s\n",
		percentile(r.okLat, 0.50), percentile(r.okLat, 0.99),
		percentile(r.okLat, 0.999), percentile(r.okLat, 1))
	if len(r.shedLat) > 0 {
		fmt.Fprintf(w, "loadgen: shed p99=%s (prompt rejection is the point)\n",
			percentile(r.shedLat, 0.99))
	}
}
