package gen

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"logdiver/internal/alps"
	"logdiver/internal/correlate"
	"logdiver/internal/errlog"
	"logdiver/internal/machine"
	"logdiver/internal/taxonomy"
	"logdiver/internal/wlm"
)

// Truth is the ground-truth record for one application run. It is produced
// by the synthesizer and withheld from the analysis pipeline; experiments
// use it to measure attribution accuracy and the hybrid detection gap.
type Truth struct {
	// Outcome is the true outcome.
	Outcome correlate.Outcome
	// Category is the true causing category for system failures.
	Category taxonomy.Category
	// Detected reports whether the causing fault left log evidence.
	Detected bool
}

// Dataset is a complete synthesized archive.
type Dataset struct {
	Config   Config
	Topology *machine.Topology
	// Jobs are the batch jobs as the accounting log reports them.
	Jobs []wlm.Job
	// Runs are the application runs as the ALPS log reports them,
	// sorted by start time.
	Runs []alps.AppRun
	// Events are the logged error events, classified and time-sorted.
	Events []errlog.Event
	// Truth maps apid to ground truth.
	Truth map[uint64]Truth
	// Start and End bound the production span.
	Start, End time.Time
}

// plannedJob is a job before execution.
type plannedJob struct {
	class      machine.NodeClass
	size       int
	runs       []time.Duration // natural run durations
	user       string
	account    string
	queue      string
	walltime   time.Duration
	capability bool
	cmd        cmdProfile
}

// simEventKind discriminates simulator queue entries.
type simEventKind int

const (
	evArrivalOrdinary simEventKind = iota + 1
	evArrivalCapXE
	evArrivalCapXK
	evJobDone
)

// simEvent is one scheduler event.
type simEvent struct {
	at   time.Time
	kind simEventKind
	job  *runningJob
	seq  int
}

type runningJob struct {
	plan  plannedJob
	nodes []machine.NodeID
	// placement is nodes as ranges, shared by every run of the job.
	placement machine.Placement
	started   time.Time
	done      time.Time
}

// eventHeap is a min-heap on (at, seq).
type eventHeap []simEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(simEvent)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// Generate synthesizes a complete dataset for cfg.
func Generate(cfg Config) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Machine == (machine.Config{}) {
		cfg.Machine = machine.BlueWaters()
	}
	top, err := machine.New(cfg.Machine)
	if err != nil {
		return nil, fmt.Errorf("gen: topology: %w", err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := &sim{
		cfg:       cfg,
		top:       top,
		rng:       rng,
		bg:        generateFaults(cfg, top, rng),
		xe:        newAllocator(top.XENodes()),
		xk:        newAllocator(top.XKNodes()),
		truth:     make(map[uint64]Truth),
		end:       cfg.Start.Add(time.Duration(cfg.Days) * 24 * time.Hour),
		nextJobID: cfg.JobIDBase,
		nextApID:  cfg.ApIDBase,
	}
	s.run()

	ds := &Dataset{
		Config:   cfg,
		Topology: top,
		Jobs:     s.jobs,
		Runs:     s.runs,
		Events:   append(s.bg.logged, s.extraEvents...),
		Truth:    s.truth,
		Start:    cfg.Start,
		End:      s.end,
	}
	sort.Slice(ds.Events, func(i, j int) bool { return ds.Events[i].Time.Before(ds.Events[j].Time) })
	sort.Slice(ds.Runs, func(i, j int) bool {
		if !ds.Runs[i].Start.Equal(ds.Runs[j].Start) {
			return ds.Runs[i].Start.Before(ds.Runs[j].Start)
		}
		return ds.Runs[i].ApID < ds.Runs[j].ApID
	})
	return ds, nil
}

// sim carries the scheduler state.
type sim struct {
	cfg Config
	top *machine.Topology
	rng *rand.Rand
	bg  *faults

	xe, xk *allocator

	queueXE []plannedJob
	queueXK []plannedJob

	heap eventHeap
	seq  int

	jobs        []wlm.Job
	runs        []alps.AppRun
	extraEvents []errlog.Event
	truth       map[uint64]Truth

	nextJobID int
	nextApID  uint64
	end       time.Time
}

func (s *sim) push(at time.Time, kind simEventKind, job *runningJob) {
	s.seq++
	heap.Push(&s.heap, simEvent{at: at, kind: kind, job: job, seq: s.seq})
}

// nextArrival schedules the next arrival of a Poisson stream.
func (s *sim) nextArrival(from time.Time, kind simEventKind, perDay float64) {
	if perDay <= 0 {
		return
	}
	gap := time.Duration(s.rng.ExpFloat64() / perDay * 24 * float64(time.Hour))
	at := from.Add(gap)
	if at.Before(s.end) {
		s.push(at, kind, nil)
	}
}

func (s *sim) run() {
	w := s.cfg.Workload
	s.nextArrival(s.cfg.Start, evArrivalOrdinary, w.JobsPerDay)
	s.nextArrival(s.cfg.Start, evArrivalCapXE, w.XECapabilityJobsPerDay)
	s.nextArrival(s.cfg.Start, evArrivalCapXK, w.XKCapabilityJobsPerDay)

	for s.heap.Len() > 0 {
		ev := heap.Pop(&s.heap).(simEvent)
		switch ev.kind {
		case evArrivalOrdinary:
			s.enqueue(s.planOrdinary(ev.at))
			s.nextArrival(ev.at, evArrivalOrdinary, w.JobsPerDay)
		case evArrivalCapXE:
			s.enqueue(s.planCapability(machine.ClassXE))
			s.nextArrival(ev.at, evArrivalCapXE, w.XECapabilityJobsPerDay)
		case evArrivalCapXK:
			s.enqueue(s.planCapability(machine.ClassXK))
			s.nextArrival(ev.at, evArrivalCapXK, w.XKCapabilityJobsPerDay)
		case evJobDone:
			s.finishJob(ev.job)
		}
		s.tryStart(ev.at)
	}
}

func (s *sim) enqueue(p plannedJob) {
	p.walltime = s.walltimeFor(p)
	if p.class == machine.ClassXK {
		s.queueXK = append(s.queueXK, p)
	} else {
		s.queueXE = append(s.queueXE, p)
	}
}

// tryStart starts queued jobs per partition in strict FIFO order: a blocked
// head drains the partition (capability jobs get their full-machine window).
func (s *sim) tryStart(now time.Time) {
	if now.After(s.end) {
		return
	}
	s.queueXE = s.tryStartQueue(s.queueXE, s.xe, now)
	s.queueXK = s.tryStartQueue(s.queueXK, s.xk, now)
}

func (s *sim) tryStartQueue(q []plannedJob, pool *allocator, now time.Time) []plannedJob {
	for len(q) > 0 && s.startJob(q[0], pool, now) {
		q = q[1:]
	}
	return q
}

func (s *sim) startJob(p plannedJob, pool *allocator, now time.Time) bool {
	size := p.size
	if size > pool.cap {
		size = pool.cap
	}
	nodes := pool.alloc(size)
	if nodes == nil {
		return false
	}
	job := &runningJob{plan: p, nodes: nodes, placement: machine.PlacementOf(nodes), started: now}
	job.done = s.executeJob(job)
	s.push(job.done, evJobDone, job)
	return true
}

func (s *sim) finishJob(job *runningJob) {
	pool := s.xe
	if job.plan.class == machine.ClassXK {
		pool = s.xk
	}
	if err := pool.release(job.nodes); err != nil {
		panic(fmt.Sprintf("gen: node release: %v", err))
	}
}

// executeJob resolves every run of the job against the fault timeline and
// records runs, truth and the job accounting record. It returns the job end
// time (when its nodes free up).
func (s *sim) executeJob(job *runningJob) time.Time {
	p := job.plan
	deadline := job.started.Add(p.walltime)
	const gap = 30 * time.Second
	cur := job.started
	exitStatus := 0
	for _, natural := range p.runs {
		if !cur.Add(time.Minute).Before(deadline) {
			break
		}
		run, truth := s.resolveRun(job, cur, natural, deadline)
		s.runs = append(s.runs, run)
		s.truth[run.ApID] = truth
		cur = run.End.Add(gap)
		if truth.Outcome == correlate.OutcomeWalltime {
			exitStatus = 256 + 15
			break
		}
		if truth.Outcome != correlate.OutcomeSuccess {
			if run.Signal != 0 {
				exitStatus = 256 + run.Signal
			} else {
				exitStatus = run.ExitCode
			}
			// Most ordinary job scripts abort after a failed step;
			// capability campaigns restart from checkpoint and press on.
			abortProb := 0.8
			if p.capability {
				abortProb = 0.25
			}
			if s.rng.Float64() < abortProb {
				break
			}
		}
	}
	endAt := cur
	if endAt.After(deadline) {
		endAt = deadline
	}
	if endAt.Before(job.started.Add(time.Minute)) {
		endAt = job.started.Add(time.Minute)
	}

	jobID := strconv.Itoa(1000000+s.nextJobID) + ".bw"
	s.nextJobID++
	s.jobs = append(s.jobs, wlm.Job{
		ID:           jobID,
		User:         p.user,
		Account:      p.account,
		Queue:        p.queue,
		CreatedAt:    job.started.Add(-time.Duration(1+s.rng.Intn(7200)) * time.Second),
		StartedAt:    job.started,
		EndedAt:      endAt,
		Nodes:        len(job.nodes),
		Walltime:     p.walltime,
		UsedWalltime: endAt.Sub(job.started),
		ExitStatus:   exitStatus,
	})
	// Stamp the job ID on the runs just recorded (they were appended with
	// a placeholder).
	for i := len(s.runs) - 1; i >= 0 && s.runs[i].JobID == ""; i-- {
		s.runs[i].JobID = jobID
		s.runs[i].User = p.user
	}
	return endAt
}

// ioIntensity models how exposed a run is to filesystem outages: small
// analysis jobs are I/O-heavy, hero runs are compute-bound with periodic
// checkpoints.
func (s *sim) ioIntensity(n int) float64 {
	switch {
	case n <= 64:
		return 1.5 + s.rng.Float64()
	case n <= 1024:
		return 0.5 + 0.6*s.rng.Float64()
	default:
		return 0.2 + 0.2*s.rng.Float64()
	}
}

// resolveRun decides when and why one run ends.
func (s *sim) resolveRun(job *runningJob, start time.Time, natural time.Duration, deadline time.Time) (alps.AppRun, Truth) {
	r := s.cfg.Rates
	nodes := job.nodes
	n := len(nodes)
	fracN := float64(n) / float64(s.top.NumNodes())

	naturalEnd := start.Add(natural)
	// Death candidates: earliest wins. App-induced candidates (launch
	// failure, GPU fault) only leave log evidence if they actually win —
	// an application that died earlier never triggered them.
	end := naturalEnd
	truth := Truth{Outcome: correlate.OutcomeSuccess, Detected: true}
	appInduced := false
	consider := func(at time.Time, cat taxonomy.Category, detected, induced bool) {
		if at.Before(end) {
			end = at
			truth = Truth{Outcome: correlate.OutcomeSystemFailure, Category: cat, Detected: detected}
			appInduced = induced
		}
	}

	// Launch failure (system software, app-induced).
	if s.rng.Float64() < r.LaunchFailProb {
		at := start.Add(time.Duration(5+s.rng.Intn(40)) * time.Second)
		consider(at, taxonomy.SoftwareALPS, true, true)
	}

	// Node-local fatal faults on the placement (background: always logged
	// independently of this run).
	if f, ok := s.bg.firstFatalOn(nodes, start, naturalEnd); ok {
		consider(f.at, f.cat, true, false)
	}

	// Machine-scoped faults (background).
	io := s.ioIntensity(n)
	for _, sh := range s.bg.sharedIn(start, naturalEnd) {
		var p float64
		switch sh.kind {
		case sharedFS:
			p = io * (r.FSKillBase + r.FSKillScale*fracN)
		case sharedHSN:
			p = r.HSNKillCoef * math.Pow(fracN, r.HSNKillGamma)
		}
		if p > 1 {
			p = 1
		}
		if s.rng.Float64() < p {
			consider(sh.at, sh.cat, true, false)
			break
		}
	}

	// GPU faults on hybrid placements; possibly silent (app-induced).
	if job.plan.class == machine.ClassXK && r.GPUFatalPerNodeHour > 0 {
		hazard := r.GPUFatalPerNodeHour * float64(n)
		tHours := s.rng.ExpFloat64() / hazard
		at := start.Add(time.Duration(tHours * float64(time.Hour)))
		if at.Before(naturalEnd) {
			cat := taxonomy.GPUMemoryDBE
			if s.rng.Float64() < 0.3 {
				cat = taxonomy.GPUBusOff
			}
			detected := s.rng.Float64() < r.GPUDetectProb
			consider(at, cat, detected, true)
		}
	}

	// User failure, scaled by the code's bugginess.
	if s.rng.Float64() < r.UserFailureProb*job.plan.cmd.userMult {
		at := start.Add(time.Duration((0.05 + 0.95*s.rng.Float64()) * float64(natural)))
		if at.Before(end) {
			end = at
			truth = Truth{Outcome: correlate.OutcomeUserFailure, Detected: true}
			appInduced = false
		}
	}

	// Walltime boundary.
	if end.After(deadline) {
		end = deadline
		truth = Truth{Outcome: correlate.OutcomeWalltime, Detected: true}
		appInduced = false
	}
	if !end.After(start) {
		end = start.Add(time.Second)
	}

	// Log the winning app-induced fault if it left evidence.
	if appInduced && truth.Detected {
		node := nodes[s.rng.Intn(n)]
		cname := s.top.MustNode(node).Cname.String()
		s.extraEvents = append(s.extraEvents, errlog.Event{
			Time: end, Node: node, Cname: cname,
			Category: truth.Category, Severity: severityOf(truth.Category),
			Message: errlog.Render(truth.Category, cname, s.rng),
		})
	}

	exitCode, signal := s.exitFor(truth)
	apid := s.nextApID + 1
	s.nextApID = apid
	run := alps.AppRun{
		ApID:      apid,
		JobID:     "", // stamped by executeJob once the job ID is assigned
		Cmd:       job.plan.cmd.name,
		Width:     n * (8 + 8*s.rng.Intn(3)),
		Placement: job.placement,
		Start:     start, End: end,
		ExitCode: exitCode, Signal: signal,
	}
	return run, truth
}

// exitFor encodes an outcome as an ALPS exit record.
func (s *sim) exitFor(t Truth) (exitCode, signal int) {
	switch t.Outcome {
	case correlate.OutcomeSuccess:
		return 0, 0
	case correlate.OutcomeWalltime:
		return 0, 15
	case correlate.OutcomeUserFailure:
		switch s.rng.Intn(4) {
		case 0:
			return 1, 0
		case 1:
			return 2, 0
		case 2:
			return 0, 11
		default:
			return 0, 6
		}
	case correlate.OutcomeSystemFailure:
		if !t.Detected {
			// Silent failures surface as ordinary crashes.
			if s.rng.Intn(2) == 0 {
				return 0, 11
			}
			return 1, 0
		}
		return 0, 9
	default:
		return 1, 0
	}
}

// cmdProfile gives each application code a personality: hero codes run the
// capability campaigns, GPU codes dominate the hybrid partition, and each
// code has its own bugginess (user-failure multiplier). This is what makes
// the per-application breakdown (experiment E17) informative rather than
// uniform noise.
type cmdProfile struct {
	name     string
	userMult float64 // multiplier on the base user-failure probability
	hero     bool    // used by capability campaigns
	gpu      bool    // preferred on the hybrid partition
}

var cmdProfiles = []cmdProfile{
	{name: "namd2", userMult: 0.5, hero: true, gpu: true},
	{name: "vasp", userMult: 0.9},
	{name: "chroma", userMult: 0.7, hero: true, gpu: true},
	{name: "milc", userMult: 0.8, hero: true},
	{name: "amber.pmemd", userMult: 0.9, gpu: true},
	{name: "cactus", userMult: 1.3},
	{name: "wrf", userMult: 1.2},
	{name: "enzo", userMult: 1.5},
	{name: "qmcpack", userMult: 1.0, gpu: true},
	{name: "gromacs", userMult: 0.8, gpu: true},
	{name: "lammps", userMult: 0.9},
	{name: "nwchem", userMult: 1.4},
	{name: "specfem3d", userMult: 1.1, hero: true},
	{name: "psdns", userMult: 1.6},
}

// pickCmd samples a code for a job. Capability jobs use hero codes; hybrid
// jobs prefer GPU codes.
func pickCmd(rng *rand.Rand, capability bool, class machine.NodeClass) cmdProfile {
	for tries := 0; tries < 32; tries++ {
		p := cmdProfiles[rng.Intn(len(cmdProfiles))]
		if capability && !p.hero {
			continue
		}
		if !capability && class == machine.ClassXK && !p.gpu && rng.Float64() < 0.7 {
			continue
		}
		return p
	}
	return cmdProfiles[0]
}

var userNames = []string{
	"aphysics", "bchem", "cclimate", "dcosmo", "eseismo", "fbio",
	"ggenomics", "hqcd", "iweather", "jplasma", "kmaterials", "lfusion",
}

var accountNames = []string{
	"alloc_astro", "alloc_bio", "alloc_chem", "alloc_climate", "alloc_qcd",
	"alloc_seismo", "alloc_industry",
}

// planOrdinary samples an ordinary job.
func (s *sim) planOrdinary(at time.Time) plannedJob {
	_ = at
	w := s.cfg.Workload
	class := machine.ClassXE
	if s.rng.Float64() < w.XKJobFraction {
		class = machine.ClassXK
	}
	size := s.sampleOrdinarySize(class)
	nRuns := geometricAtLeastOne(s.rng, w.MeanRunsPerJob)
	runs := make([]time.Duration, nRuns)
	for i := range runs {
		runs[i] = lognormalDuration(s.rng, w.MedianRunMinutes, w.SigmaRun)
	}
	return plannedJob{
		class: class, size: size, runs: runs,
		user:    userNames[s.rng.Intn(len(userNames))],
		account: accountNames[s.rng.Intn(len(accountNames))],
		queue:   pickQueue(s.rng),
		cmd:     pickCmd(s.rng, false, class),
	}
}

// planCapability samples a capability campaign.
func (s *sim) planCapability(class machine.NodeClass) plannedJob {
	w := s.cfg.Workload
	sizes := w.XECapabilitySizes
	knee := w.FullScaleKneeXE
	if class == machine.ClassXK {
		sizes = w.XKCapabilitySizes
		knee = w.FullScaleKneeXK
	}
	size := sizes[s.rng.Intn(len(sizes))]
	median := w.MedianMidScaleMinutes
	if class == machine.ClassXK {
		median = w.MedianMidScaleXKMinutes
	}
	if size >= knee {
		median = w.MedianCapabilityMinutes
	}
	nRuns := geometricAtLeastOne(s.rng, w.CapabilityRunsPerJob)
	runs := make([]time.Duration, nRuns)
	for i := range runs {
		runs[i] = lognormalDuration(s.rng, median, w.SigmaCapability)
	}
	return plannedJob{
		class: class, size: size, runs: runs,
		user:       userNames[s.rng.Intn(len(userNames))],
		account:    accountNames[s.rng.Intn(len(accountNames))],
		queue:      "capability",
		capability: true,
		cmd:        pickCmd(s.rng, true, class),
	}
}

// sampleOrdinarySize draws the node count of an ordinary job: a weighted
// power-of-two bucket with uniform jitter inside the bucket.
func (s *sim) sampleOrdinarySize(class machine.NodeClass) int {
	// Bucket k covers [2^k, 2^(k+1)). Weights favour small jobs, matching
	// the count-dominant population of a production machine.
	weights := []float64{0.26, 0.13, 0.09, 0.09, 0.11, 0.10, 0.08, 0.06, 0.04, 0.02, 0.012, 0.005, 0.003}
	k := pickWeighted(s.rng, weights)
	lo := 1 << k
	size := lo + s.rng.Intn(lo)
	max := s.cfg.Workload.SmallSizeMax
	if class == machine.ClassXK {
		max = min(max, 512)
	}
	if size > max {
		size = max
	}
	return size
}

// walltimeFor assigns the job's requested walltime. Usually generous; with
// probability WalltimeProb the request undershoots and the job dies at the
// limit.
func (s *sim) walltimeFor(p plannedJob) time.Duration {
	var planned time.Duration
	for _, d := range p.runs {
		planned += d + 30*time.Second
	}
	factor := 1.1 + 0.5*s.rng.Float64()
	if s.rng.Float64() < s.cfg.Rates.WalltimeProb {
		factor = 0.4 + 0.5*s.rng.Float64()
	}
	w := time.Duration(float64(planned) * factor)
	w = w.Round(time.Minute)
	if w < 2*time.Minute {
		w = 2 * time.Minute
	}
	return w
}

func pickQueue(rng *rand.Rand) string {
	switch rng.Intn(10) {
	case 0:
		return "debug"
	case 1, 2:
		return "high"
	default:
		return "normal"
	}
}

// geometricAtLeastOne samples a geometric count with the given mean, >= 1.
func geometricAtLeastOne(rng *rand.Rand, mean float64) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	n := 1
	for rng.Float64() > p && n < 64 {
		n++
	}
	return n
}

// lognormalDuration samples a lognormal duration with the given median (in
// minutes) and log-sigma, floored at 10 seconds.
func lognormalDuration(rng *rand.Rand, medianMinutes, sigma float64) time.Duration {
	minutes := medianMinutes * math.Exp(sigma*rng.NormFloat64())
	d := time.Duration(minutes * float64(time.Minute))
	if d < 10*time.Second {
		d = 10 * time.Second
	}
	return d
}
