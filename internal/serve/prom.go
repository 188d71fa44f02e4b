package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// endpointStats are the per-endpoint request counters. All fields are
// atomics: handlers on any goroutine bump them lock-free and the /metrics
// scrape reads them the same way.
type endpointStats struct {
	requests atomic.Uint64
	errors   atomic.Uint64
	// durationNanos accumulates total handler wall time.
	durationNanos atomic.Int64
}

// promMetrics is the hand-rolled, stdlib-only Prometheus registry. The
// endpoint map is filled while the routes are mounted at server construction
// and never mutated afterwards, so concurrent reads need no lock.
type promMetrics struct {
	endpoints map[string]*endpointStats
	// Admission counters: every data-endpoint request is either admitted
	// or shed for exactly one reason, so
	// admitted + shed(rate_limit) + shed(inflight) equals the requests the
	// admission layer saw.
	admitted      atomic.Uint64
	shedRateLimit atomic.Uint64
	shedInFlight  atomic.Uint64
	// notModified counts conditional requests answered 304 from the epoch
	// ETag without a body.
	notModified atomic.Uint64
	// cacheServed counts responses answered from pre-encoded cached view
	// bytes; cacheRenders counts the once-per-epoch view renders behind
	// them. served - renders is the work the cache saved.
	cacheServed  atomic.Uint64
	cacheRenders atomic.Uint64
	// whatifServed counts /v1/whatif 200s, cached or not; whatifRenders
	// counts actual simulations (cache fills plus uncached renders), so
	// served - renders is the simulation work the cache saved.
	whatifServed  atomic.Uint64
	whatifRenders atomic.Uint64
}

func newPromMetrics() *promMetrics {
	return &promMetrics{endpoints: make(map[string]*endpointStats)}
}

// observe records one finished request.
func (m *promMetrics) observe(endpoint string, status int, took time.Duration) {
	st := m.endpoints[endpoint]
	if st == nil {
		return
	}
	st.requests.Add(1)
	if status >= 400 {
		st.errors.Add(1)
	}
	st.durationNanos.Add(int64(took))
}

// labeledGauge is one sample of a labeled gauge family.
type labeledGauge struct {
	labelValue string
	value      float64
}

// gaugeFamily is a gauge with one label dimension (the per-shard gauges:
// one sample per machine). Samples render in the order given;
// callers pass them pre-sorted.
type gaugeFamily struct {
	name, help, label string
	samples           []labeledGauge
}

// render writes the Prometheus text exposition format. Gauges describing
// the serving state (snapshot epoch, run count, ingestion lag) and the
// labeled per-shard families come from the caller so the registry stays
// decoupled from the store.
func (m *promMetrics) render(w http.ResponseWriter, gauges map[string]float64, families []gaugeFamily) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder

	keys := make([]string, 0, len(m.endpoints))
	for k := range m.endpoints {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	b.WriteString("# HELP logdiver_http_requests_total Requests served, by endpoint.\n")
	b.WriteString("# TYPE logdiver_http_requests_total counter\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "logdiver_http_requests_total{endpoint=%q} %d\n", k, m.endpoints[k].requests.Load())
	}
	b.WriteString("# HELP logdiver_http_errors_total Requests answered with status >= 400, by endpoint.\n")
	b.WriteString("# TYPE logdiver_http_errors_total counter\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "logdiver_http_errors_total{endpoint=%q} %d\n", k, m.endpoints[k].errors.Load())
	}
	b.WriteString("# HELP logdiver_http_request_duration_seconds Handler wall time, by endpoint.\n")
	b.WriteString("# TYPE logdiver_http_request_duration_seconds summary\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "logdiver_http_request_duration_seconds_sum{endpoint=%q} %g\n",
			k, time.Duration(m.endpoints[k].durationNanos.Load()).Seconds())
		fmt.Fprintf(&b, "logdiver_http_request_duration_seconds_count{endpoint=%q} %d\n",
			k, m.endpoints[k].requests.Load())
	}

	b.WriteString("# HELP logdiver_http_admitted_total Data-endpoint requests admitted past rate limiting and the in-flight bound.\n")
	b.WriteString("# TYPE logdiver_http_admitted_total counter\n")
	fmt.Fprintf(&b, "logdiver_http_admitted_total %d\n", m.admitted.Load())
	b.WriteString("# HELP logdiver_http_shed_total Data-endpoint requests shed by admission control, by reason.\n")
	b.WriteString("# TYPE logdiver_http_shed_total counter\n")
	fmt.Fprintf(&b, "logdiver_http_shed_total{reason=\"rate_limit\"} %d\n", m.shedRateLimit.Load())
	fmt.Fprintf(&b, "logdiver_http_shed_total{reason=\"inflight\"} %d\n", m.shedInFlight.Load())
	b.WriteString("# HELP logdiver_http_not_modified_total Conditional requests answered 304 from the epoch ETag.\n")
	b.WriteString("# TYPE logdiver_http_not_modified_total counter\n")
	fmt.Fprintf(&b, "logdiver_http_not_modified_total %d\n", m.notModified.Load())
	b.WriteString("# HELP logdiver_cache_served_total Responses served from pre-encoded per-epoch cached bytes.\n")
	b.WriteString("# TYPE logdiver_cache_served_total counter\n")
	fmt.Fprintf(&b, "logdiver_cache_served_total %d\n", m.cacheServed.Load())
	b.WriteString("# HELP logdiver_cache_renders_total Once-per-epoch view renders filling the response cache.\n")
	b.WriteString("# TYPE logdiver_cache_renders_total counter\n")
	fmt.Fprintf(&b, "logdiver_cache_renders_total %d\n", m.cacheRenders.Load())
	b.WriteString("# HELP logdiver_whatif_served_total /v1/whatif responses served (200s, cached or not).\n")
	b.WriteString("# TYPE logdiver_whatif_served_total counter\n")
	fmt.Fprintf(&b, "logdiver_whatif_served_total %d\n", m.whatifServed.Load())
	b.WriteString("# HELP logdiver_whatif_renders_total Counterfactual simulations run to answer /v1/whatif.\n")
	b.WriteString("# TYPE logdiver_whatif_renders_total counter\n")
	fmt.Fprintf(&b, "logdiver_whatif_renders_total %d\n", m.whatifRenders.Load())

	gkeys := make([]string, 0, len(gauges))
	for k := range gauges {
		gkeys = append(gkeys, k)
	}
	sort.Strings(gkeys)
	for _, k := range gkeys {
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %g\n", k, k, gauges[k])
	}
	for _, f := range families {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", f.name, f.help, f.name)
		for _, s := range f.samples {
			fmt.Fprintf(&b, "%s{%s=%q} %g\n", f.name, f.label, s.labelValue, s.value)
		}
	}
	_, _ = w.Write([]byte(b.String()))
}

// statusRecorder captures the status code a handler writes, so the
// instrumentation wrapper outside http.TimeoutHandler sees the status the
// client actually received (including the timeout 503).
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}
