// Package serve is the HTTP query layer of the online subsystem. Handlers
// are thin, read-only views over the latest store.Snapshot: each request
// loads the snapshot pointer exactly once and answers entirely from it, so
// a response is always internally consistent with a single epoch even while
// the ingestion goroutine installs newer snapshots concurrently. Every
// payload carries the epoch it was answered from.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"logdiver/internal/core"
	"logdiver/internal/correlate"
	"logdiver/internal/fleet"
	"logdiver/internal/metrics"
	"logdiver/internal/store"
	"logdiver/internal/version"
)

// Request bounds.
const (
	// DefaultRequestTimeout is the per-request deadline when
	// Config.RequestTimeout is zero.
	DefaultRequestTimeout = 10 * time.Second
	// DefaultMaxQueryBytes bounds the raw query string; longer requests
	// are rejected with 414 before any handler work.
	DefaultMaxQueryBytes = 1024
	// DefaultMaxBodyBytes bounds request bodies. The only endpoint that
	// reads one is POST /v1/whatif, whose policy configs are bounded by
	// whatif.MaxPolicies and fit comfortably; anything bigger is a client
	// error.
	DefaultMaxBodyBytes = 4096
)

// Config wires a Server.
type Config struct {
	// Store supplies snapshots. Required unless Fleet is set, in which case
	// it defaults to the fleet manager's merged store.
	Store *store.Store
	// Fleet is the manager whose shards ?machine=, the /v1/health shard
	// rows and the per-shard /metrics gauges report. The daemon always sets
	// it; a server over a bare Store has no shards.
	Fleet *fleet.Manager
	// RequestTimeout bounds each POST /v1/whatif request end to end
	// (DefaultRequestTimeout when zero). Requests over budget get 503. The
	// other endpoints answer from memory and run without a deadline.
	RequestTimeout time.Duration
	// RateLimit admits at most this many requests per second per client on
	// the data endpoints (token bucket holding ⌈2×RateLimit⌉ tokens, at
	// least 1; excess gets 429 + Retry-After). Zero or negative disables
	// per-client rate limiting.
	RateLimit float64
	// MaxInFlight bounds concurrently executing data-endpoint requests;
	// excess requests are shed immediately with 503 + Retry-After: 1. Zero
	// or negative disables the bound.
	MaxInFlight int
	// Now injects the clock for the ingestion-lag gauge and the rate
	// limiter (time.Now if nil).
	Now func() time.Time
}

// Server is the HTTP API. It implements http.Handler.
type Server struct {
	cfg  Config
	prom *promMetrics
	mux  *http.ServeMux

	// cache is the published per-epoch response cache; see cache.go.
	cache atomic.Pointer[viewCaches]
	// inFlight counts executing data-endpoint requests against
	// cfg.MaxInFlight.
	inFlight atomic.Int64
	// limiter is the per-client token bucket (nil when rate limiting is
	// off).
	limiter *clientLimiter
	// version is the build reported by /v1/health.
	version version.Info
}

// aggViews is the one table behind the aggregate views, indexed by viewID.
// Each name is mounted at /v1/<name> and /v1/fleet/<name>; rows sharing a
// name are adjacent and told apart by ?class= (the first is the default).
// body builds the response; fm is the trailing fleet object, nil on the
// plain /v1/<name> path.
var aggViews = [numAggViews]struct {
	name  string
	class string
	body  func(snap *store.Snapshot, fm *fleetMeta) any
}{
	viewOutcomes: {"outcomes", "", outcomesBody},
	viewScalingXE: {"scaling", "xe", func(snap *store.Snapshot, fm *fleetMeta) any {
		return scalingBody(snap, "xe", snap.ScalingXE, fm)
	}},
	viewScalingXK: {"scaling", "xk", func(snap *store.Snapshot, fm *fleetMeta) any {
		return scalingBody(snap, "xk", snap.ScalingXK, fm)
	}},
	viewMTTI:       {"mtti", "", mttiBody},
	viewCategories: {"categories", "", categoriesBody},
}

// New validates cfg and builds the route table.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil && cfg.Fleet != nil {
		cfg.Store = cfg.Fleet.FleetStore()
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("serve: nil store")
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s := &Server{
		cfg:     cfg,
		prom:    newPromMetrics(),
		mux:     http.NewServeMux(),
		version: version.Get(),
	}
	if cfg.RateLimit > 0 {
		s.limiter = newClientLimiter(cfg.RateLimit, int(math.Ceil(2*cfg.RateLimit)), DefaultMaxClients, cfg.Now)
	}
	// Health and metrics are the probes operators use to diagnose an
	// overloaded server: they stay cheap and deadline-free.
	s.routeFast("GET /v1/health", "health", s.handleHealth)
	for v, av := range aggViews {
		if v == 0 || av.name != aggViews[v-1].name {
			s.routeFast("GET /v1/"+av.name, av.name, s.handleView(viewID(v), false))
			s.routeFast("GET /v1/fleet/"+av.name, "fleet_"+av.name, s.handleView(viewID(v), true))
		}
	}
	s.routeFast("GET /v1/runs", "runs_list", s.handleRuns)
	s.routeFast("GET /v1/runs/{apid}", "runs", s.handleRun)
	s.route("POST /v1/whatif", "whatif", s.handleWhatif)
	s.routeFast("GET /metrics", "metrics", s.handleMetrics)
	return s, nil
}

// handleView serves the aggregate view whose first aggViews row is first, at
// /v1/<name> or, with fleet set, at /v1/fleet/<name>: the cached merged view
// (the fleet family's carries the fleet object), or one shard's own rendering
// when ?machine= names it.
func (s *Server) handleView(first viewID, fleet bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var class, machine string
		if r.URL.RawQuery != "" { // the bare path is the hot one: parse nothing
			q := r.URL.Query()
			class, machine = q.Get("class"), q.Get("machine")
		}
		view, ok := classView(first, class)
		if !ok {
			s.writeErr(w, http.StatusBadRequest, fmt.Sprintf("unknown class %q: want xe or xk", class))
			return
		}
		if machine != "" {
			s.serveShardView(w, r, machine, view)
			return
		}
		if snap, ok := s.snapshot(w); ok {
			s.serveView(w, r, snap, view, fleet)
		}
	}
}

// classView resolves ?class= among the aggViews rows sharing first's name;
// a name with one classless row ignores the parameter.
func classView(first viewID, class string) (viewID, bool) {
	if class == "" || aggViews[first].class == "" {
		return first, true
	}
	for v := first; v < numAggViews && aggViews[v].name == aggViews[first].name; v++ {
		if aggViews[v].class == class {
			return v, true
		}
	}
	return 0, false
}

// guard applies the request-size bounds and, for data endpoints (everything
// but health and metrics — the probes operators need most while the server
// sheds), the admission pipeline around h.
func (s *Server) guard(key string, h http.HandlerFunc) http.HandlerFunc {
	admitted := key != "health" && key != "metrics"
	return func(w http.ResponseWriter, r *http.Request) {
		if len(r.URL.RawQuery) > DefaultMaxQueryBytes {
			s.writeErr(w, http.StatusRequestURITooLong, "query string too long")
			return
		}
		if admitted {
			if !s.admit(w, r) {
				return
			}
			defer s.release()
		}
		if r.Body != nil && r.Body != http.NoBody {
			r.Body = http.MaxBytesReader(w, r.Body, DefaultMaxBodyBytes)
		}
		h(w, r)
	}
}

// route registers one instrumented, size-bounded, admission-checked,
// deadline-bounded handler. The instrumentation wraps OUTSIDE the timeout
// so the counters see the 503 a timed-out client actually received.
func (s *Server) route(pattern, key string, h http.HandlerFunc) {
	inner := http.TimeoutHandler(s.guard(key, h), s.cfg.RequestTimeout, `{"error":"request timed out"}`)
	s.instrument(pattern, key, inner)
}

// routeFast registers a handler outside http.TimeoutHandler: every endpoint
// but POST /v1/whatif answers from pre-encoded bytes or a bounded render
// from memory and cannot block, so it skips the per-request timeout
// goroutine and response buffer — that is what makes the cached path
// nearly allocation-free. Slow-client writes are bounded by the
// http.Server write timeout instead.
func (s *Server) routeFast(pattern, key string, h http.HandlerFunc) {
	s.instrument(pattern, key, s.guard(key, h))
}

// instrument mounts inner with the per-endpoint status/latency counters;
// key is the endpoint's metrics label.
func (s *Server) instrument(pattern, key string, inner http.Handler) {
	s.prom.endpoints[key] = &endpointStats{}
	s.mux.Handle(pattern, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		began := s.cfg.Now()
		inner.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		s.prom.observe(key, rec.status, s.cfg.Now().Sub(began))
	}))
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Serve runs the API on l until ctx is canceled, then shuts down
// gracefully, draining in-flight requests for up to drain.
func (s *Server) Serve(ctx context.Context, l net.Listener, drain time.Duration) error {
	srv := &http.Server{
		Handler:           s,
		ReadHeaderTimeout: 5 * time.Second,
		// The fast (un-TimeoutHandler-ed) cached endpoints rely on this to
		// bound writes to slow clients.
		WriteTimeout: 30 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	<-errc // always http.ErrServerClosed after a clean Shutdown
	return nil
}

// writeJSON encodes v with a status code.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type errResponse struct {
	Error string `json:"error"`
}

func (s *Server) writeErr(w http.ResponseWriter, status int, msg string) {
	s.writeJSON(w, status, errResponse{Error: msg})
}

// snapshot loads the current snapshot once, answering 503 when ingestion
// has not produced one yet. Handlers must do ALL reads through the returned
// pointer: loading twice could straddle an epoch swap.
func (s *Server) snapshot(w http.ResponseWriter) (*store.Snapshot, bool) {
	snap := s.cfg.Store.Current()
	if snap == nil {
		s.writeErr(w, http.StatusServiceUnavailable, "no snapshot yet: ingestion warming up")
		return nil, false
	}
	return snap, true
}

// ---- /v1/health ----

type healthResponse struct {
	Status  string            `json:"status"`
	Epoch   uint64            `json:"epoch"`
	BuiltAt string            `json:"built_at"`
	Runs    int               `json:"runs"`
	Jobs    int               `json:"jobs"`
	Events  int               `json:"events"`
	Span    string            `json:"span,omitempty"`
	Version version.Info      `json:"version"`
	Ingest  store.IngestStats `json:"ingest"`
	// IngestLagSeconds is the age of the last ingestion poll — the gauge
	// that catches a wedged tail loop even when no data is arriving.
	IngestLagSeconds float64 `json:"ingest_lag_seconds"`
	// Parse surfaces lenient-mode accounting per archive: per-kind
	// malformed counters plus the pairing anomalies (duplicate starts,
	// clamped runs, unmatched exits).
	Parse []core.ArchiveHygiene `json:"parse"`
	// Fleet reports the fleet epoch, the partial flag and one row per
	// machine shard: status, epoch, lag, last error and boot provenance
	// (warm/cold/cold-fallback).
	Fleet *fleetHealth `json:"fleet"`
}

// startingResponse is the 503 body before the first snapshot. It carries
// the shard rows so a shard failing its very first round (unreadable
// archive, strict-mode malformed line) says why nothing is being served.
type startingResponse struct {
	Status  string       `json:"status"`
	Version version.Info `json:"version"`
	Fleet   *fleetHealth `json:"fleet"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	// One load decides the whole body: the manager installs the merged
	// snapshot before it publishes the View, so reading the store beside
	// the View could pair epoch N+1 with fleet_epoch N and stale shard rows.
	fv := s.fleetView()
	snap := fv.Merged
	if s.cfg.Fleet == nil {
		snap = s.cfg.Store.Current()
	}
	if snap == nil {
		s.writeJSON(w, http.StatusServiceUnavailable, startingResponse{
			Status: "starting", Version: s.version, Fleet: s.fleetHealthOf(fv),
		})
		return
	}
	resp := healthResponse{
		Status:  "ok",
		Epoch:   snap.Epoch,
		BuiltAt: snap.BuiltAt.UTC().Format(time.RFC3339),
		Runs:    snap.Outcomes.Total,
		Jobs:    snap.Result.NumJobs,
		Events:  snap.Result.NumEvents,
		Version: s.version,
		Ingest:  snap.Ingest,
		Parse:   snap.Result.Parse.Hygiene(),
		Fleet:   s.fleetHealthOf(fv),
	}
	if fv.Partial {
		// Degraded, not down: merged responses still serve every healthy
		// shard plus the failed shards' last good snapshots.
		resp.Status = "degraded"
	}
	if !snap.Result.Start.IsZero() {
		resp.Span = fmt.Sprintf("%s .. %s",
			snap.Result.Start.UTC().Format(time.RFC3339),
			snap.Result.End.UTC().Format(time.RFC3339))
	}
	if last, ok := s.cfg.Store.LastSync(); ok {
		resp.IngestLagSeconds = s.cfg.Now().Sub(last).Seconds()
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// ---- /v1/outcomes ----

type outcomeRow struct {
	Outcome   string  `json:"outcome"`
	Runs      int     `json:"runs"`
	NodeHours float64 `json:"node_hours"`
}

type outcomesResponse struct {
	Epoch                   uint64       `json:"epoch"`
	TotalRuns               int          `json:"total_runs"`
	TotalNodeHours          float64      `json:"total_node_hours"`
	Outcomes                []outcomeRow `json:"outcomes"`
	SystemFailureFraction   float64      `json:"system_failure_fraction"`
	SystemNodeHoursFraction float64      `json:"system_node_hours_fraction"`
	Fleet                   *fleetMeta   `json:"fleet,omitempty"`
}

func outcomesBody(snap *store.Snapshot, fm *fleetMeta) any {
	b := snap.Outcomes
	order := correlate.Outcomes()
	resp := outcomesResponse{
		Fleet:                   fm,
		Epoch:                   snap.Epoch,
		TotalRuns:               b.Total,
		TotalNodeHours:          b.TotalNodeHours,
		Outcomes:                make([]outcomeRow, 0, len(order)),
		SystemFailureFraction:   b.SystemFailureFraction(),
		SystemNodeHoursFraction: b.SystemNodeHoursFraction(),
	}
	for _, o := range order {
		resp.Outcomes = append(resp.Outcomes, outcomeRow{
			Outcome:   o.String(),
			Runs:      b.Counts[o],
			NodeHours: b.NodeHours[o],
		})
	}
	return resp
}

// ---- /v1/scaling ----

type scaleRow struct {
	Label    string  `json:"label"`
	Lo       int     `json:"lo"`
	Hi       int     `json:"hi"`
	Runs     int     `json:"runs"`
	Failures int     `json:"failures"`
	Prob     float64 `json:"prob"`
	ProbLo   float64 `json:"prob_lo"`
	ProbHi   float64 `json:"prob_hi"`
}

type scalingResponse struct {
	Epoch   uint64     `json:"epoch"`
	Class   string     `json:"class"`
	Buckets []scaleRow `json:"buckets"`
	Fleet   *fleetMeta `json:"fleet,omitempty"`
}

func scalingBody(snap *store.Snapshot, class string, buckets []metrics.ScaleBucket, fm *fleetMeta) any {
	resp := scalingResponse{Epoch: snap.Epoch, Class: class, Buckets: make([]scaleRow, 0, len(buckets)), Fleet: fm}
	for _, b := range buckets {
		resp.Buckets = append(resp.Buckets, scaleRow{
			Label:    b.Label(),
			Lo:       b.Lo,
			Hi:       b.Hi,
			Runs:     b.Runs,
			Failures: b.Failures,
			Prob:     b.Prob.P,
			ProbLo:   b.Prob.Lo,
			ProbHi:   b.Prob.Hi,
		})
	}
	return resp
}

// ---- /v1/mtti ----

type mttiRow struct {
	Lo            int     `json:"lo"`
	Hi            int     `json:"hi"`
	Runs          int     `json:"runs"`
	Interrupts    int     `json:"interrupts"`
	ExposureHours float64 `json:"exposure_hours"`
	MTTIHours     float64 `json:"mtti_hours"`
}

type mttiResponse struct {
	Epoch   uint64     `json:"epoch"`
	Buckets []mttiRow  `json:"buckets"`
	Fleet   *fleetMeta `json:"fleet,omitempty"`
}

func mttiBody(snap *store.Snapshot, fm *fleetMeta) any {
	resp := mttiResponse{Epoch: snap.Epoch, Buckets: make([]mttiRow, 0, len(snap.MTTI)), Fleet: fm}
	for _, b := range snap.MTTI {
		resp.Buckets = append(resp.Buckets, mttiRow{
			Lo:            b.Lo,
			Hi:            b.Hi,
			Runs:          b.Runs,
			Interrupts:    b.Interrupts,
			ExposureHours: b.ExposureHours,
			MTTIHours:     b.MTTIHours,
		})
	}
	return resp
}

// ---- /v1/categories ----

type categoryRow struct {
	Group         string  `json:"group"`
	Category      string  `json:"category"`
	Failures      int     `json:"failures"`
	NodeHoursLost float64 `json:"node_hours_lost"`
}

type categoriesResponse struct {
	Epoch      uint64        `json:"epoch"`
	Categories []categoryRow `json:"categories"`
	Fleet      *fleetMeta    `json:"fleet,omitempty"`
}

func categoriesBody(snap *store.Snapshot, fm *fleetMeta) any {
	resp := categoriesResponse{Epoch: snap.Epoch, Categories: make([]categoryRow, 0, len(snap.Categories)), Fleet: fm}
	for _, c := range snap.Categories {
		resp.Categories = append(resp.Categories, categoryRow{
			Group:         c.Group.String(),
			Category:      c.Category.String(),
			Failures:      c.Failures,
			NodeHoursLost: c.NodeHoursLost,
		})
	}
	return resp
}

// ---- /v1/runs/{apid} ----

type evidenceView struct {
	Time     string `json:"time"`
	Node     string `json:"node,omitempty"`
	Category string `json:"category"`
	Severity string `json:"severity"`
	Message  string `json:"message"`
}

type runResponse struct {
	Epoch     uint64        `json:"epoch"`
	ApID      uint64        `json:"apid"`
	JobID     string        `json:"job_id"`
	User      string        `json:"user"`
	Cmd       string        `json:"cmd"`
	Width     int           `json:"width"`
	Nodes     int           `json:"nodes"`
	Class     string        `json:"class"`
	Start     string        `json:"start"`
	End       string        `json:"end"`
	DurationS float64       `json:"duration_seconds"`
	ExitCode  int           `json:"exit_code"`
	Signal    int           `json:"signal"`
	Outcome   string        `json:"outcome"`
	Cause     string        `json:"cause,omitempty"`
	Evidence  *evidenceView `json:"evidence,omitempty"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshot(w)
	if !ok {
		return
	}
	apid, err := strconv.ParseUint(r.PathValue("apid"), 10, 64)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, fmt.Sprintf("bad apid %q", r.PathValue("apid")))
		return
	}
	run, ok := snap.Run(apid)
	if !ok {
		s.writeErr(w, http.StatusNotFound, fmt.Sprintf("no run with apid %d in epoch %d", apid, snap.Epoch))
		return
	}
	// The drill-down is a pure function of (snapshot, apid), so it shares
	// the epoch ETag: a client re-fetching within the epoch gets a 304
	// without the render.
	if s.notModified(w, r, s.etagFor(snap)) {
		return
	}
	resp := runResponse{
		Epoch:     snap.Epoch,
		ApID:      run.ApID,
		JobID:     run.JobID,
		User:      run.User,
		Cmd:       run.Cmd,
		Width:     run.Width,
		Nodes:     run.NumNodes(),
		Class:     run.Class.String(),
		Start:     run.Start.UTC().Format(time.RFC3339),
		End:       run.End.UTC().Format(time.RFC3339),
		DurationS: run.Duration().Seconds(),
		ExitCode:  run.ExitCode,
		Signal:    run.Signal,
		Outcome:   run.Outcome.String(),
	}
	if run.Outcome == correlate.OutcomeSystemFailure {
		resp.Cause = run.Cause.String()
	}
	if run.HasEvidence {
		ev := &evidenceView{
			Time:     run.Evidence.Time.UTC().Format(time.RFC3339),
			Category: run.Evidence.Category.String(),
			Severity: run.Evidence.Severity.String(),
			Message:  run.Evidence.Message,
		}
		if !run.Evidence.IsSystemWide() {
			ev.Node = run.Evidence.Cname
		}
		resp.Evidence = ev
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// ---- /metrics ----

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	gauges := map[string]float64{
		"logdiver_snapshot_epoch": 0,
		"logdiver_snapshot_runs":  0,
	}
	if snap := s.cfg.Store.Current(); snap != nil {
		gauges["logdiver_snapshot_epoch"] = float64(snap.Epoch)
		gauges["logdiver_snapshot_runs"] = float64(snap.Outcomes.Total)
		gauges["logdiver_snapshot_built_timestamp_seconds"] = float64(snap.BuiltAt.Unix())
	}
	if last, ok := s.cfg.Store.LastSync(); ok {
		gauges["logdiver_ingest_lag_seconds"] = s.cfg.Now().Sub(last).Seconds()
	}
	s.prom.render(w, gauges, s.fleetGauges(gauges))
}
