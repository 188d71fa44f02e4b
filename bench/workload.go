package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"time"

	"logdiver/internal/fleet"
	"logdiver/internal/gen"
	"logdiver/internal/machine"
	"logdiver/internal/mutate"
)

// Append windows of one shard draw from disjoint identifier sub-ranges,
// the scheme of gen.FleetMachine.Window with a free window length.
const (
	windowApIDStride  = 1 << 20
	windowJobIDStride = 1 << 16
)

// shardPlan is the generator configuration of one machine shard: the base
// window the restart phase boots from, the catch-up window, and the small
// windows appended to this shard one per round it takes part in.
type shardPlan struct {
	name    string
	profile string // fleet.MachineBlueWaters or fleet.MachineSmall
	base    gen.Config
	catchUp gen.Config
	small   []gen.Config
}

// plan is a workload at one seed and scale: what to generate and how many
// operations each phase performs. Every count is fixed; no phase is
// time-boxed.
type plan struct {
	shards []shardPlan
	// smallRounds is R: round r appends to shard (r mod len(shards)).
	smallRounds int
	// mutateBudget > 0 corrupts every generated archive with mutate.Apply
	// (all operators but oversize, which pads lines to a megabyte each).
	mutateBudget float64
	// queryN requests per query phase; with burst set, queryN requests after
	// every small round instead (always on a freshly invalidated cache).
	queryN int
	burst  bool
	mix    func(rng *rand.Rand, env *queryEnv, n int) []request
	// whatifK uncached scenario requests per cycle.
	whatifK int
}

type workloadSpec struct {
	name string
	plan func(seed int64, scale float64) plan
}

// workloads lists the workloads in BENCHMARK.json order; README.md says why
// each exists.
var workloads = []workloadSpec{
	{"wide_sparse", planWideSparse},
	{"small_noisy", planSmallNoisy},
	{"fleet_churn", planFleetChurn},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// scaleCount scales an operation count, keeping at least lo.
func scaleCount(n int, scale float64, lo int) int {
	return max(lo, int(math.Round(float64(n)*scale)))
}

// scaleLoad scales the generated volume (job and error arrival rates) and
// leaves spans, topology and window layout alone, so a scaled-down run
// exercises the same code paths on less data.
func scaleLoad(cfg gen.Config, scale float64) gen.Config {
	cfg.Workload.JobsPerDay *= scale
	cfg.Workload.XECapabilityJobsPerDay *= scale
	cfg.Workload.XKCapabilityJobsPerDay *= scale
	cfg.Rates.NodeBenignPerNodeHour *= scale
	cfg.Rates.MalformedPerDay *= scale
	return cfg
}

// steadyCampaigns reshapes the capability campaigns so that the volume of a
// fixture depends little on the seed: half again as many campaigns of 2 runs
// each instead of 6. At the defaults a campaign's run count is geometric
// with mean 6 and the campaigns saturate the machine, so over ten seeds the
// 19-day wide_sparse base swung between 37k and 45k runs and between 64 and
// 150 runs of 8,000+ nodes, and every metric that scales with the snapshot
// swung with it (+-12%). Reshaped, the same ten seeds give 44.3k-45.4k runs
// and 59-83 wide runs. The driver gives every run another seed, so this is
// what lets the bounds be about the code and not about the draw.
func steadyCampaigns(cfg gen.Config) gen.Config {
	cfg.Workload.XECapabilityJobsPerDay *= 1.5
	cfg.Workload.XKCapabilityJobsPerDay *= 1.5
	cfg.Workload.CapabilityRunsPerJob = 2
	return cfg
}

// window derives append window idx of base: days long, starting startDay
// days after the base window's start.
func window(base gen.Config, idx, startDay, days int) gen.Config {
	cfg := base
	cfg.Seed += int64(idx) * 7919
	cfg.Start = base.Start.Add(time.Duration(startDay) * 24 * time.Hour)
	cfg.Days = days
	cfg.ApIDBase += uint64(idx) * windowApIDStride
	cfg.JobIDBase += idx * windowJobIDStride
	return cfg
}

// singleShard lays out base | catch-up | R one-day windows back to back.
func singleShard(name, profile string, cfg gen.Config, baseDays, catchUpDays, rounds int) shardPlan {
	sp := shardPlan{name: name, profile: profile}
	sp.base = window(cfg, 0, 0, baseDays)
	sp.catchUp = window(cfg, 1, baseDays, catchUpDays)
	for r := 0; r < rounds; r++ {
		sp.small = append(sp.small, window(cfg, 2+r, baseDays+catchUpDays+r, 1))
	}
	return sp
}

// The load factors below size one run (five set-ups, a warm-up cycle and
// seven timed cycles of about 3 s) to some 35 s on two cores: the benchmark's
// driver makes 70 runs in 57 minutes.
const (
	wideSparseLoad = 0.45
	smallNoisyLoad = 0.35
)

func planWideSparse(seed int64, scale float64) plan {
	cfg := steadyCampaigns(scaleLoad(gen.Scaled(1), wideSparseLoad*scale))
	cfg.Seed = seed
	return plan{
		shards:      []shardPlan{singleShard("bluewaters", fleet.MachineBlueWaters, cfg, 19, 5, 6)},
		smallRounds: 6,
		queryN:      scaleCount(32000, scale, 200),
		mix:         dashboardMix,
		whatifK:     10,
	}
}

func planSmallNoisy(seed int64, scale float64) plan {
	cfg := gen.Small(1)
	cfg.Rates.NodeBenignPerNodeHour *= 400
	cfg.Rates.NodeFatalPerNodeHour *= 20
	cfg.Rates.GPUFatalPerNodeHour *= 50
	cfg.Rates.DupProb = 0.05
	cfg.Rates.MalformedPerDay = 200
	cfg = steadyCampaigns(scaleLoad(cfg, smallNoisyLoad*scale))
	cfg.Seed = seed
	return plan{
		shards:       []shardPlan{singleShard("small", fleet.MachineSmall, cfg, 19, 5, 6)},
		smallRounds:  6,
		mutateBudget: 0.001,
		queryN:       scaleCount(12000, scale, 200),
		mix:          analystMix,
		whatifK:      20,
	}
}

func planFleetChurn(seed int64, scale float64) plan {
	// Many short bursts, not few long ones: what an epoch advance invalidates
	// is a fifth of a burst of 250 requests and a twentieth of one of 1,000,
	// which would read as net/http loopback and nothing else.
	const rounds = 32
	p := plan{
		smallRounds: rounds,
		queryN:      scaleCount(250, scale, 40),
		burst:       true,
		mix:         fleetMix,
		whatifK:     20,
	}
	machines := gen.Fleet(4, 10, seed)
	for _, m := range machines {
		cfg := steadyCampaigns(scaleLoad(m.Config, scale))
		sp := shardPlan{name: m.Name, profile: fleet.MachineSmall}
		sp.base = window(cfg, 0, 0, 10)
		sp.catchUp = window(cfg, 1, 10, 2)
		thin := cfg
		thin.Workload.JobsPerDay = 100 * scale
		for r := 0; r < rounds/len(machines); r++ {
			sp.small = append(sp.small, window(thin, 2+r, 12+r, 1))
		}
		p.shards = append(p.shards, sp)
	}
	return p
}

// ---- fixtures ----

// archive is the raw bytes of the three log files of one window or span.
type archive struct{ acc, aps, sys []byte }

func (a archive) size() int { return len(a.acc) + len(a.aps) + len(a.sys) }

// shardFixture is one shard's generated input. full holds the whole span
// contiguously; base, catchUp and small are subslices of it, so the batch
// phase and the online phase read the same memory.
type shardFixture struct {
	name     string
	profile  string
	top      *machine.Topology
	full     archive
	base     archive
	catchUp  archive
	small    []archive
	dir      string // archive directory the tailer follows
	stateDir string
	// baseState is the persisted state after the cold sync of base; every
	// cycle restores it and truncates the archives back to base size.
	baseState []byte
}

type genStats struct {
	generate time.Duration // gen.Generate
	emit     time.Duration // Dataset.Write*
	bytes    int
	runs     int
}

// generateShard synthesizes every window of sp in order. The gen.Dataset of
// a window is dropped as soon as its bytes are emitted.
func generateShard(sp shardPlan, budget float64, gs *genStats) (*shardFixture, error) {
	var mc machine.Config
	switch sp.profile {
	case fleet.MachineBlueWaters:
		mc = machine.BlueWaters()
	case fleet.MachineSmall:
		mc = machine.Small()
	default:
		return nil, fmt.Errorf("unknown machine profile %q", sp.profile)
	}
	top, err := machine.New(mc)
	if err != nil {
		return nil, err
	}
	fx := &shardFixture{name: sp.name, profile: sp.profile, top: top}

	windows := append([]gen.Config{sp.base, sp.catchUp}, sp.small...)
	var acc, aps, sys bytes.Buffer
	type cut struct{ acc, aps, sys int }
	cuts := make([]cut, 0, len(windows))
	for i, cfg := range windows {
		cfg.Parallelism = 1
		t0 := time.Now()
		ds, err := gen.Generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("generate %s window %d: %w", sp.name, i, err)
		}
		gs.generate += time.Since(t0)
		if len(ds.Runs) >= windowApIDStride || len(ds.Jobs) >= windowJobIDStride {
			return nil, fmt.Errorf("%s window %d: %d runs / %d jobs overflow the identifier strides", sp.name, i, len(ds.Runs), len(ds.Jobs))
		}
		gs.runs += len(ds.Runs)
		emit := func(dst *bytes.Buffer, write func(*bytes.Buffer) error, seedOff int64) error {
			if budget <= 0 {
				return write(dst)
			}
			var raw bytes.Buffer
			if err := write(&raw); err != nil {
				return err
			}
			out, _ := mutate.Apply(raw.Bytes(), mutate.Config{Seed: cfg.Seed + seedOff, Budget: budget, Ops: mutateOps})
			dst.Write(out)
			return nil
		}
		t0 = time.Now()
		if err := emit(&acc, func(b *bytes.Buffer) error { return ds.WriteAccounting(b) }, 1); err != nil {
			return nil, err
		}
		if err := emit(&aps, func(b *bytes.Buffer) error { return ds.WriteApsys(b) }, 2); err != nil {
			return nil, err
		}
		if err := emit(&sys, func(b *bytes.Buffer) error { return ds.WriteErrorLog(b) }, 3); err != nil {
			return nil, err
		}
		gs.emit += time.Since(t0)
		cuts = append(cuts, cut{acc.Len(), aps.Len(), sys.Len()})
		if i == 0 {
			// Size the buffers for the whole span from the base window's
			// density, so the append windows do not regrow them.
			rest := 1.25 * float64(spanDays(windows)-cfg.Days) / float64(cfg.Days)
			for _, b := range []*bytes.Buffer{&acc, &aps, &sys} {
				b.Grow(int(rest * float64(b.Len())))
			}
		}
	}

	fx.full = archive{acc.Bytes(), aps.Bytes(), sys.Bytes()}
	gs.bytes += fx.full.size()
	slice := func(i int) archive {
		var lo cut
		if i > 0 {
			lo = cuts[i-1]
		}
		hi := cuts[i]
		return archive{fx.full.acc[lo.acc:hi.acc:hi.acc], fx.full.aps[lo.aps:hi.aps:hi.aps], fx.full.sys[lo.sys:hi.sys:hi.sys]}
	}
	fx.base, fx.catchUp = slice(0), slice(1)
	for i := 2; i < len(windows); i++ {
		fx.small = append(fx.small, slice(i))
	}
	return fx, nil
}

func spanDays(windows []gen.Config) int {
	days := 0
	for _, w := range windows {
		days += w.Days
	}
	return days
}

// mutateOps is every corruption operator except oversize.
var mutateOps = func() []mutate.Op {
	var ops []mutate.Op
	for _, op := range mutate.AllOps() {
		if op != mutate.OpOversize {
			ops = append(ops, op)
		}
	}
	return ops
}()

// ---- query mixes ----

// request is one scripted HTTP request and the status it must get.
type request struct {
	method string
	path   string
	gzip   bool
	etag   string // If-None-Match
	want   int
}

// queryEnv is what a mix needs to know about the served state. It is
// learned once, in the warm-up cycle; every cycle replays the same state,
// so the same requests stay valid.
type queryEnv struct {
	etag     string   // entity tag of the final merged epoch
	apids    []uint64 // every run of the final snapshot
	cursors  []string // next_cursor of every limit=200 page
	machines []string
}

var viewPaths = []string{"/v1/outcomes", "/v1/scaling?class=xe", "/v1/mtti", "/v1/categories"}

func get(path string) request {
	return request{method: http.MethodGet, path: path, want: http.StatusOK}
}

// dashboardMix: 70% cached views (half of them gzip), 20% conditional
// requests answered 304, 10% the default /v1/runs page (also cached).
func dashboardMix(rng *rand.Rand, env *queryEnv, n int) []request {
	reqs := make([]request, n)
	for i := range reqs {
		switch p := rng.Intn(10); {
		case p < 7:
			r := get(viewPaths[rng.Intn(len(viewPaths))])
			r.gzip = rng.Intn(2) == 0
			reqs[i] = r
		case p < 9:
			r := get(viewPaths[rng.Intn(len(viewPaths))])
			r.etag, r.want = env.etag, http.StatusNotModified
			reqs[i] = r
		default:
			reqs[i] = get("/v1/runs")
		}
	}
	return reqs
}

const analystWhatifSeed = 7

// analystMix: 40% streamed cursor pages of 200 runs, 30% single-run
// drill-downs, 20% views, 10% a repeated what-if scenario (a cache hit
// after the first). Only the views ride the response cache.
func analystMix(rng *rand.Rand, env *queryEnv, n int) []request {
	reqs := make([]request, n)
	for i := range reqs {
		switch p := rng.Intn(10); {
		case p < 4:
			path := "/v1/runs?limit=200"
			if k := rng.Intn(len(env.cursors) + 1); k > 0 {
				path += "&cursor=" + env.cursors[k-1]
			}
			reqs[i] = get(path)
		case p < 7:
			reqs[i] = get(fmt.Sprintf("/v1/runs/%d", env.apids[rng.Intn(len(env.apids))]))
		case p < 9:
			reqs[i] = get(viewPaths[rng.Intn(len(viewPaths))])
		default:
			reqs[i] = request{method: http.MethodPost, path: fmt.Sprintf("/v1/whatif?seed=%d", analystWhatifSeed), want: http.StatusOK}
		}
	}
	return reqs
}

var fleetViewPaths = []string{"/v1/fleet/outcomes", "/v1/fleet/scaling?class=xe", "/v1/fleet/mtti", "/v1/fleet/categories", "/v1/outcomes"}

// fleetMix: 40% merged fleet views, 30% per-machine views (rendered per
// request), 30% run drill-downs. Sent right after an epoch advance, so the
// first request of every view re-renders it.
func fleetMix(rng *rand.Rand, env *queryEnv, n int) []request {
	reqs := make([]request, n)
	for i := range reqs {
		switch p := rng.Intn(10); {
		case p < 4:
			reqs[i] = get(fleetViewPaths[rng.Intn(len(fleetViewPaths))])
		case p < 7:
			reqs[i] = get("/v1/fleet/outcomes?machine=" + env.machines[rng.Intn(len(env.machines))])
		default:
			reqs[i] = get(fmt.Sprintf("/v1/runs/%d", env.apids[rng.Intn(len(env.apids))]))
		}
	}
	return reqs
}
