package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"logdiver/internal/alps"
	"logdiver/internal/coalesce"
	"logdiver/internal/core"
	"logdiver/internal/correlate"
	"logdiver/internal/errlog"
	"logdiver/internal/interval"
	"logdiver/internal/machine"
	"logdiver/internal/metrics"
	"logdiver/internal/parse"
	"logdiver/internal/persist"
	"logdiver/internal/serve"
	"logdiver/internal/store"
	"logdiver/internal/stream"
	"logdiver/internal/syslogx"
	"logdiver/internal/taxonomy"
	"logdiver/internal/whatif"
	"logdiver/internal/wlm"
)

// layerTotals accumulates, over every shard, the time and work counts of
// each layer called in isolation on the workload's own bytes.
type layerTotals struct {
	streamD                            time.Duration
	streamBytes, streamLines           int
	wlmD                               time.Duration
	wlmBytes, wlmRecords, wlmMalformed int
	alpsD                              time.Duration
	alpsBytes                          int
	nidD                               time.Duration
	nidNodes, alpsRuns                 int
	sysD                               time.Duration
	sysBytes, sysLines, sysMalformed   int
	classifyD                          time.Duration
	classifyN, classified              int
	events                             int
	dedupD, tuplesD, spatialD          time.Duration
	rawEvents, groups                  int
	indexD, attributeD                 time.Duration
	attributed                         int
	finishD, analyzeP1D                time.Duration
	analyzeAllocs, analyzeAllocBytes   uint64
	appendD, resultD                   time.Duration
	rounds, reattributed, roundRuns    int
	exportD, restoreD                  time.Duration
	aggregateD, buildD, mergeD         time.Duration
	loadD, saveD                       time.Duration
	stateBytes, stateRuns              int
	syncD                              time.Duration
	syncs                              int
	pollD                              time.Duration
	polls, pollBytes                   int
}

// timed runs fn inside a span and returns how long it took.
func (b *bench) timed(name string, fn func()) time.Duration {
	end := b.tr.begin(name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	end()
	return d
}

var nodeListKey = []byte("node_list=")

// measureLayers calls each layer's exported entry points in isolation and
// returns the per-layer metrics that do not come from the traced cycles.
func (b *bench) measureLayers(scale float64) (map[string]float64, error) {
	end := b.tr.begin("layers")
	defer end()
	var t layerTotals
	merged := store.Zero()
	for _, fx := range b.shards {
		snap, err := b.shardLayers(fx, &t)
		if err != nil {
			return nil, fmt.Errorf("layers: shard %s: %w", fx.name, err)
		}
		t.mergeD += b.timed("store.Merge", func() { merged = store.Merge(merged, snap) })
	}
	m := map[string]float64{
		"stream.blocks_mbps":           mbps(t.streamBytes, t.streamD),
		"stream.lines":                 float64(t.streamLines),
		"wlm.scan_mbps":                mbps(t.wlmBytes, t.wlmD),
		"wlm.records":                  float64(t.wlmRecords),
		"wlm.malformed_ratio":          ratio(t.wlmMalformed, t.wlmRecords+t.wlmMalformed),
		"alps.parse_mbps":              mbps(t.alpsBytes, t.alpsD),
		"alps.nidlist_nodes_per_s":     float64(t.nidNodes) / t.nidD.Seconds(),
		"alps.runs":                    float64(t.alpsRuns),
		"syslogx.parse_mbps":           mbps(t.sysBytes, t.sysD),
		"syslogx.lines":                float64(t.sysLines),
		"syslogx.malformed_ratio":      ratio(t.sysMalformed, t.sysLines+t.sysMalformed),
		"taxonomy.classify_ns_per_msg": float64(t.classifyD) / float64(max(1, t.classifyN)),
		"taxonomy.classified_ratio":    ratio(t.classified, t.classifyN),
		"errlog.events":                float64(t.events),
		"coalesce.dedup_ms":            ms(t.dedupD),
		"coalesce.tuples_ms":           ms(t.tuplesD),
		"coalesce.spatial_ms":          ms(t.spatialD),
		"coalesce.reduction_ratio":     ratio(t.rawEvents, t.groups),
		"interval.index_build_ms":      ms(t.indexD),
		"correlate.attribute_ms":       ms(t.attributeD),
		"correlate.runs_per_s":         float64(t.attributed) / t.attributeD.Seconds(),
		"core.finish_ms":               ms(t.finishD),
		// Two separate measurements: on a tiny input their noise can exceed
		// the difference.
		"core.ingest_self_ms":     ms(max(0, t.analyzeP1D-t.finishD)),
		"core.analyze_allocs":     float64(t.analyzeAllocs),
		"core.analyze_alloc_mb":   float64(t.analyzeAllocBytes) / 1e6,
		"core.append_ms":          ms(t.appendD) / float64(max(1, t.rounds)),
		"core.result_ms":          ms(t.resultD) / float64(max(1, t.rounds)),
		"core.reattributed_ratio": ratio(t.reattributed, t.roundRuns),
		"core.state_export_ms":    ms(t.exportD),
		"core.restore_ms":         ms(t.restoreD),
		"metrics.aggregate_ms":    ms(t.aggregateD),
		"store.build_ms":          ms(t.buildD),
		"store.merge_ms":          ms(t.mergeD),
		"store.sync_ms":           ms(t.syncD) / float64(max(1, t.syncs)),
		"store.tailer_poll_ms":    ms(t.pollD) / float64(max(1, t.polls)),
		"store.tailer_bytes":      float64(t.pollBytes),
		"persist.load_ms":         ms(t.loadD),
		"persist.save_ms":         ms(t.saveD),
		"persist.state_bytes":     float64(t.stateBytes),
		"persist.bytes_per_run":   ratio(t.stateBytes, t.stateRuns),
	}
	if err := b.serveLayers(merged, scale, m); err != nil {
		return nil, err
	}
	return m, nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// shardLayers walks one shard's full archive through every ingestion and
// analysis layer, then its append windows through the incremental path,
// and returns the shard's final snapshot.
func (b *bench) shardLayers(fx *shardFixture, t *layerTotals) (*store.Snapshot, error) {
	loc := time.UTC

	// stream: split into line-aligned blocks and walk the lines.
	blocks := make([][]stream.Block, 3)
	var streamErr error
	for i, data := range [][]byte{fx.full.acc, fx.full.aps, fx.full.sys} {
		t.streamD += b.timed("stream.NumberedBlocks", func() {
			streamErr = stream.NumberedBlocks(bytes.NewReader(data), stream.DefaultBlockSize, func(blk stream.Block) bool {
				blocks[i] = append(blocks[i], blk)
				stream.ForEachLine(blk.Data, func([]byte) { t.streamLines++ })
				return true
			})
		})
		if streamErr != nil {
			return nil, streamErr
		}
		t.streamBytes += len(data)
	}

	// wlm: scan accounting blocks, assemble jobs.
	wlmAsm := wlm.NewAssembler()
	for _, blk := range blocks[0] {
		var recs []wlm.ScanRecord
		var stats parse.LineStats
		var err error
		t.wlmD += b.timed("wlm.ScanBlockMode", func() {
			recs, stats, err = wlm.ScanBlockMode(blk.Data, loc, blk.FirstLine, parse.Lenient)
		})
		if err != nil {
			return nil, err
		}
		t.wlmBytes += len(blk.Data)
		t.wlmRecords += len(recs)
		t.wlmMalformed += stats.Malformed()
		b.timed("wlm.Assembler.AddScan", func() {
			for _, rec := range recs {
				if aerr := wlmAsm.AddScan(rec); aerr != nil && err == nil {
					err = aerr
				}
			}
		})
		if err != nil {
			return nil, err
		}
	}
	jobs := wlmAsm.Jobs()

	// alps: the apsys lines are syslog-framed, so syslogx parses the frame
	// (accounted to syslogx, as in the pipeline) and alps the body.
	alpsAsm := alps.NewAssembler()
	alpsAsm.SetLenient(true)
	tag := []byte(alps.Tag)
	for _, blk := range blocks[1] {
		var ats []time.Time
		var bodies [][]byte
		b.timed("syslogx.CheckLineBytes.apsys", func() {
			stream.ForEachLine(blk.Data, func(raw []byte) {
				lv, skip, perr := syslogx.CheckLineBytes(raw)
				if skip || perr != nil || !bytes.Equal(lv.Tag, tag) {
					return
				}
				ats = append(ats, lv.Time)
				bodies = append(bodies, lv.Msg)
			})
		})
		views := make([]alps.MessageView, 0, len(bodies))
		keep := ats[:0]
		t.alpsD += b.timed("alps.ParseMessageBytes", func() {
			for i, body := range bodies {
				if v, perr := alps.ParseMessageBytes(body); perr == nil {
					views = append(views, v)
					keep = append(keep, ats[i])
				}
				t.alpsBytes += len(body)
			}
		})
		var lists [][]byte
		for _, body := range bodies {
			if i := bytes.Index(body, nodeListKey); i >= 0 {
				list := body[i+len(nodeListKey):]
				if j := bytes.Index(list, []byte(", ")); j >= 0 {
					list = list[:j]
				}
				lists = append(lists, list)
			}
		}
		t.nidD += b.timed("alps.ParseNIDListBytes", func() {
			for _, list := range lists {
				ids, _ := alps.ParseNIDListBytes(list)
				t.nidNodes += len(ids)
			}
		})
		var err error
		b.timed("alps.Assembler.AddView", func() {
			for i, v := range views {
				if aerr := alpsAsm.AddView(keep[i], v); aerr != nil && err == nil {
					err = aerr
				}
			}
		})
		if err != nil {
			return nil, err
		}
	}
	runs := alpsAsm.Runs()
	t.alpsRuns += len(runs)

	// syslogx -> taxonomy -> errlog on the error log.
	cls := taxonomy.Default()
	hc := errlog.NewHostCache()
	var batch errlog.EventBatch
	for _, blk := range blocks[2] {
		var lines []syslogx.LineView
		t.sysD += b.timed("syslogx.CheckLineBytes", func() {
			stream.ForEachLine(blk.Data, func(raw []byte) {
				lv, skip, perr := syslogx.CheckLineBytes(raw)
				switch {
				case skip:
				case perr != nil:
					t.sysMalformed++
				default:
					lines = append(lines, lv)
				}
			})
		})
		t.sysBytes += len(blk.Data)
		t.sysLines += len(lines)
		cats := make([]taxonomy.Category, len(lines))
		sevs := make([]taxonomy.Severity, len(lines))
		t.classifyD += b.timed("taxonomy.ClassifyBytes", func() {
			for i, lv := range lines {
				cats[i], sevs[i] = cls.ClassifyBytes(lv.Msg)
			}
		})
		t.classifyN += len(lines)
		b.timed("errlog.EventBatch", func() {
			for i, lv := range lines {
				if cats[i] == taxonomy.Unclassified {
					continue
				}
				t.classified++
				node, cname := hc.Resolve(lv.Host, fx.top)
				batch.Append(errlog.Event{Time: lv.Time, Node: node, Cname: cname, Category: cats[i], Severity: sevs[i]}, lv.Msg)
			}
		})
	}
	events := batch.Finish()
	t.events += len(events)
	blocks = nil

	// core.finish over the parsed inputs, then its stages one by one.
	var err error
	t.finishD += b.timed("core.AnalyzeParsed", func() {
		_, err = core.AnalyzeParsed(jobs, runs, events, fx.top, core.Options{Parallelism: 1})
	})
	if err != nil {
		return nil, err
	}
	var deduped []errlog.Event
	var tuples []coalesce.Tuple
	var groups []coalesce.Group
	t.dedupD += b.timed("coalesce.Dedup", func() { deduped = coalesce.Dedup(events) })
	t.tuplesD += b.timed("coalesce.Tuples", func() { tuples = coalesce.Tuples(deduped, coalesce.DefaultTemporalWindow) })
	t.spatialD += b.timed("coalesce.Spatial", func() { groups = coalesce.Spatial(tuples, coalesce.DefaultSpatialWindow) })
	t.rawEvents += len(events)
	t.groups += len(groups)
	var ix *interval.Index
	t.indexD += b.timed("interval.NewIndex", func() { ix = interval.NewIndex(deduped) })
	cfg := correlate.DefaultConfig()
	cfg.Jobs = make(map[string]wlm.Job, len(jobs))
	for _, j := range jobs {
		cfg.Jobs[j.ID] = j
	}
	corr, err := correlate.New(ix, fx.top, cfg)
	if err != nil {
		return nil, err
	}
	t.attributeD += b.timed("correlate.AttributeAll", func() { t.attributed += len(corr.AttributeAllParallel(runs, 1)) })
	jobs, runs, events, deduped, tuples, groups, ix, corr = nil, nil, nil, nil, nil, nil, nil, nil

	// core.Analyze at Parallelism 1 with allocation accounting.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t.analyzeP1D += b.timed("core.Analyze.p1.isolated", func() {
		_, err = core.Analyze(core.Archives{
			Accounting: bytes.NewReader(fx.full.acc),
			Apsys:      bytes.NewReader(fx.full.aps),
			Syslog:     bytes.NewReader(fx.full.sys),
		}, fx.top, core.Options{Parallelism: 1})
	})
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	t.analyzeAllocs += m1.Mallocs - m0.Mallocs
	t.analyzeAllocBytes += m1.TotalAlloc - m0.TotalAlloc

	// incremental: base and catch-up untimed, then the small windows.
	inc, err := core.NewIncremental(fx.top, loc, core.Options{})
	if err != nil {
		return nil, err
	}
	for _, a := range []archive{fx.base, fx.catchUp} {
		if _, err := inc.Append(core.Delta{Accounting: a.acc, Apsys: a.aps, Syslog: a.sys}); err != nil {
			return nil, err
		}
		if _, err := inc.Result(); err != nil {
			return nil, err
		}
	}
	var res *core.Result
	for _, a := range fx.small {
		t.appendD += b.timed("core.Incremental.Append", func() {
			_, err = inc.Append(core.Delta{Accounting: a.acc, Apsys: a.aps, Syslog: a.sys})
		})
		if err != nil {
			return nil, err
		}
		t.resultD += b.timed("core.Incremental.Result", func() { res, err = inc.Result() })
		if err != nil {
			return nil, err
		}
		t.rounds++
		t.reattributed += inc.Reattributed()
		t.roundRuns += inc.Runs()
	}
	var st *core.IncrementalState
	t.exportD += b.timed("core.Incremental.State", func() { st, err = inc.State() })
	if err != nil {
		return nil, err
	}
	t.restoreD += b.timed("core.RestoreIncremental", func() { _, err = core.RestoreIncremental(fx.top, loc, core.Options{}, st) })
	if err != nil {
		return nil, err
	}
	st, inc = nil, nil

	// metrics + store on the final result.
	t.aggregateD += b.timed("metrics.aggregate", func() {
		metrics.Outcomes(res.Runs)
		metrics.ByCategory(res.Runs)
		_, _ = metrics.FailureProbabilityByScale(res.Runs, metrics.GeometricBuckets(fx.top.NumXE()), machine.ClassXE)
		_, _ = metrics.FailureProbabilityByScale(res.Runs, metrics.GeometricBuckets(fx.top.NumXK()), machine.ClassXK)
		_, _ = metrics.MTTIByScale(res.Runs, metrics.GeometricBuckets(fx.top.NumNodes()), 0)
	})
	var snap *store.Snapshot
	t.buildD += b.timed("store.Build", func() { snap, err = store.Build(res, fx.top, store.IngestStats{}, time.Now()) })
	if err != nil {
		return nil, err
	}
	snap.Machine, snap.Epoch = fx.name, 1

	// persist: load and save the shard's base state.
	if err := b.reset(); err != nil {
		return nil, err
	}
	statePath := filepath.Join(fx.stateDir, persist.StateFile)
	var ld *persist.State
	t.loadD += b.timed("persist.Load", func() { ld, err = persist.Load(statePath) })
	if err != nil {
		return nil, err
	}
	scratch := filepath.Join(b.workDir, "layers-"+fx.name+".ldv")
	t.saveD += b.timed("persist.Save", func() { err = persist.Save(scratch, ld) })
	if err != nil {
		return nil, err
	}
	_ = os.Remove(scratch) // scratch copy; the work directory is removed at exit anyway
	t.stateBytes += len(fx.baseState)
	t.stateRuns += len(ld.Syncer.Pipeline.Attr)

	// store.Tailer: the poll of each small append, from the base offsets.
	tail := store.NewTailer(fx.dir)
	if err := tail.RestoreState(ld.Syncer.Tailer); err != nil {
		return nil, err
	}
	for _, a := range append([]archive{fx.catchUp}, fx.small...) {
		if err := fx.appendArchive(a); err != nil {
			return nil, err
		}
		var d core.Delta
		t.pollD += b.timed("store.Tailer.Poll", func() { d, err = tail.Poll() })
		if err != nil {
			return nil, err
		}
		t.polls++
		t.pollBytes += len(d.Accounting) + len(d.Apsys) + len(d.Syslog)
	}

	// store.Syncer without the fleet manager around it: warm resume, then
	// one Sync per small append.
	if err := b.reset(); err != nil {
		return nil, err
	}
	sy, err := store.NewSyncer(store.SyncerConfig{
		Tailer: store.NewTailer(fx.dir), Store: store.New(), Topology: fx.top,
		Location: loc, Machine: fx.name, Resume: ld.Syncer,
	})
	if err != nil {
		return nil, err
	}
	if err := fx.appendArchive(fx.catchUp); err != nil {
		return nil, err
	}
	if _, err := sy.Sync(); err != nil {
		return nil, err
	}
	for _, a := range fx.small {
		if err := fx.appendArchive(a); err != nil {
			return nil, err
		}
		t.syncD += b.timed("store.Syncer.Sync", func() { _, err = sy.Sync() })
		if err != nil {
			return nil, err
		}
		t.syncs++
	}
	return snap, nil
}

// discard is a ResponseWriter that drops the body; the header map is
// cleared and reused so the writer adds nothing to a measured handler.
type discard struct {
	hdr    http.Header
	status int
}

func (d *discard) Header() http.Header { return d.hdr }
func (d *discard) WriteHeader(c int)   { d.status = c }
func (d *discard) Write(p []byte) (int, error) {
	if d.status == 0 {
		d.status = http.StatusOK
	}
	return len(p), nil
}

// serveLayers times the serving paths through ServeHTTP on the workload's
// final merged snapshot, and the what-if engine behind /v1/whatif.
func (b *bench) serveLayers(merged *store.Snapshot, scale float64, m map[string]float64) error {
	st := store.New()
	st.Install(merged)
	srv, err := serve.New(serve.Config{Store: st})
	if err != nil {
		return err
	}
	runs := merged.Result.Runs
	if len(runs) == 0 {
		return fmt.Errorf("layers: final snapshot has no runs")
	}
	_, midLast := merged.RunsPage(runs[len(runs)/2].ApID, 1)
	w := &discard{hdr: make(http.Header)}
	iters := scaleCount(2000, scale, 50)
	// perOp serves q iters times and returns microseconds per request.
	perOp := func(span string, q request) (float64, error) {
		req := q.httpRequest("http://bench.local")
		w.status = 0
		srv.ServeHTTP(w, req) // prime the cache entry
		if w.status != q.want {
			return 0, fmt.Errorf("layers: %s %s answered %d, want %d", q.method, q.path, w.status, q.want)
		}
		d := b.timed(span, func() {
			for i := 0; i < iters; i++ {
				clear(w.hdr)
				srv.ServeHTTP(w, req)
			}
		})
		return us(d) / float64(iters), nil
	}
	gz := get("/v1/outcomes")
	gz.gzip = true
	notMod := get("/v1/outcomes")
	notMod.etag, notMod.want = `"1"`, http.StatusNotModified
	// The cursor token is read from a served page, as a client would.
	rec := &recorder{hdr: make(http.Header)}
	srv.ServeHTTP(rec, get("/v1/runs?limit=200").httpRequest("http://bench.local"))
	page := "/v1/runs?limit=200"
	if c := cursorRE.FindSubmatch(rec.body.Bytes()); c != nil {
		page += "&cursor=" + string(c[1])
	}
	for _, c := range []struct {
		metric string
		q      request
	}{
		{"serve.view_hit_us", get("/v1/outcomes")},
		{"serve.view_gzip_hit_us", gz},
		{"serve.not_modified_us", notMod},
		{"serve.runs_page_us", get(page)},
		{"serve.run_drill_us", get(fmt.Sprintf("/v1/runs/%d", midLast))},
		{"serve.whatif_hit_us", request{method: http.MethodPost, path: "/v1/whatif?seed=7", want: http.StatusOK}},
	} {
		v, err := perOp(c.metric, c.q)
		if err != nil {
			return err
		}
		m[c.metric] = v
	}

	// First request of each view on a server that has rendered nothing yet.
	const fresh = 10
	var renderD time.Duration
	for i := 0; i < fresh; i++ {
		cold, err := serve.New(serve.Config{Store: st})
		if err != nil {
			return err
		}
		reqs := make([]*http.Request, len(viewPaths))
		for j, p := range viewPaths {
			reqs[j] = get(p).httpRequest("http://bench.local")
		}
		renderD += b.timed("serve.view_render", func() {
			for _, req := range reqs {
				clear(w.hdr)
				cold.ServeHTTP(w, req)
			}
		})
	}
	m["serve.view_render_us"] = us(renderD) / float64(fresh*len(viewPaths))

	// whatif: the simulation and the encoding a cache miss pays for.
	const sims = 3
	var rep *whatif.Report
	simD := b.timed("whatif.Simulate", func() {
		for i := 0; i < sims; i++ {
			rep, err = whatif.Simulate(whatif.Input{Runs: runs, MTTI: merged.MTTI}, whatif.DefaultPolicies(), whatif.Options{Seed: int64(1 + i)})
		}
	})
	if err != nil {
		return err
	}
	encD := b.timed("whatif.encode", func() {
		for i := 0; i < sims; i++ {
			var buf, zbuf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			_ = enc.Encode(rep)
			zw, _ := gzip.NewWriterLevel(&zbuf, gzip.BestSpeed)
			_, _ = zw.Write(buf.Bytes())
			_ = zw.Close()
		}
	})
	m["whatif.simulate_ms"] = ms(simD) / sims
	m["whatif.runs_per_s"] = float64(len(runs)*sims) / simD.Seconds()
	m["whatif.encode_ms"] = ms(encD) / sims
	return nil
}
