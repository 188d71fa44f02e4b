package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"

	"logdiver/internal/core"
	"logdiver/internal/correlate"
	"logdiver/internal/gen"
	"logdiver/internal/machine"
	"logdiver/internal/metrics"
	"logdiver/internal/raceflag"
	"logdiver/internal/stats"
	"logdiver/internal/taxonomy"
)

// fleetFixture returns a small, fast fleet: k machines, one day each, with
// the workload thinned so the whole suite stays in test-friendly time.
func fleetFixture(t testing.TB, k int) []gen.FleetMachine {
	t.Helper()
	machines := gen.Fleet(k, 1, 7)
	for i := range machines {
		machines[i].Config.Workload.JobsPerDay = 120
		machines[i].Config.Rates.NodeFatalPerNodeHour *= 20
		machines[i].Config.Rates.GPUFatalPerNodeHour *= 50
	}
	return machines
}

// scratchResult analyzes one machine's windows from scratch — the oracle's
// reference path — and returns the full batch Result with its topology.
func scratchResult(t testing.TB, m gen.FleetMachine, windows int, par int) (*core.Result, *machine.Topology) {
	t.Helper()
	var acc, aps, sys strings.Builder
	for w := 0; w < windows; w++ {
		ds, err := gen.Generate(m.Window(w))
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.WriteAccounting(&acc); err != nil {
			t.Fatal(err)
		}
		if err := ds.WriteApsys(&aps); err != nil {
			t.Fatal(err)
		}
		if err := ds.WriteErrorLog(&sys); err != nil {
			t.Fatal(err)
		}
	}
	top, err := machine.New(m.Config.Machine)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Analyze(core.Archives{
		Accounting: strings.NewReader(acc.String()),
		Apsys:      strings.NewReader(aps.String()),
		Syslog:     strings.NewReader(sys.String()),
	}, top, core.Options{Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	return res, top
}

// buildShard builds the per-shard snapshot of a batch Result, stamped with
// the machine name and epoch.
func buildShard(t testing.TB, res *core.Result, top *machine.Topology, name string, epoch uint64) *Snapshot {
	t.Helper()
	snap, err := Build(res, top, IngestStats{}, time.Unix(0, 0).UTC())
	if err != nil {
		t.Fatal(err)
	}
	snap.Machine = name
	snap.Epoch = epoch
	return snap
}

// scratchShard is buildShard over scratchResult.
func scratchShard(t testing.TB, m gen.FleetMachine, windows int, par int, epoch uint64) *Snapshot {
	t.Helper()
	res, top := scratchResult(t, m, windows, par)
	return buildShard(t, res, top, m.Name, epoch)
}

// retainedSums is what a merged snapshot must retain besides the runs: the
// sums of the batch Results' job and event counts.
type retainedSums struct {
	jobs, events int
}

func (r *retainedSums) add(res *core.Result) {
	r.jobs += res.NumJobs
	r.events += len(res.Events)
}

func (r retainedSums) check(t *testing.T, what string, s *Snapshot) {
	t.Helper()
	got := retainedSums{jobs: s.Result.NumJobs, events: s.Result.NumEvents}
	if got != r {
		t.Errorf("%s retains %+v, batch results sum to %+v", what, got, r)
	}
	if r.jobs == 0 || r.events == 0 {
		t.Errorf("%s: fixture has no jobs or events; the count assertions prove nothing", what)
	}
}

// syncedShard drives the incremental path over the same windows: a tailer
// and syncer against real archive files, appending one window per round.
func syncedShard(t *testing.T, m gen.FleetMachine, windows int, par int) *Snapshot {
	t.Helper()
	dir := t.TempDir()
	top, err := machine.New(m.Config.Machine)
	if err != nil {
		t.Fatal(err)
	}
	st := New()
	sy, err := NewSyncer(SyncerConfig{
		Tailer:   NewTailer(dir),
		Store:    st,
		Topology: top,
		Machine:  m.Name,
		Options:  core.Options{Parallelism: par},
		Now:      func() time.Time { return time.Unix(0, 0).UTC() },
	})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < windows; w++ {
		ds, err := gen.Generate(m.Window(w))
		if err != nil {
			t.Fatal(err)
		}
		writeArchives(t, dir, ds)
		if _, err := sy.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	snap := st.Current()
	if snap == nil {
		t.Fatal("no snapshot installed")
	}
	return snap
}

// mustJSON marshals v the way the serving layer does, for byte-identity
// comparisons between merged and from-scratch views.
func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMergeOracle is the differential oracle: merging N per-machine
// snapshots built incrementally (tailer + syncer, window appends) must be
// byte-identical to analyzing each machine's concatenated input from
// scratch and aggregating over the combined run sequence — at parallelism
// 1 and 4.
func TestMergeOracle(t *testing.T) {
	machines := fleetFixture(t, 3)
	const windows = 2
	for _, par := range []int{1, 4} {
		par := par
		t.Run(map[int]string{1: "par1", 4: "par4"}[par], func(t *testing.T) {
			t.Parallel()
			// Scatter side: incremental shards folded left-to-right, which
			// must be what one n-ary call gives.
			merged := Zero()
			var vector []ShardEpoch
			var shards []*Snapshot
			for _, m := range machines {
				snap := syncedShard(t, m, windows, par)
				vector = append(vector, ShardEpoch{Machine: m.Name, Epoch: snap.Epoch})
				shards = append(shards, snap)
				merged = Merge(merged, snap)
			}
			if !reflect.DeepEqual(Merge(shards...), merged) {
				t.Fatal("one n-ary merge differs from the pairwise left fold")
			}

			// Gather side: from-scratch per-machine analyses concatenated
			// in machine-name order, aggregated directly.
			var (
				runs []correlate.AttributedRun
				sums retainedSums
				top  *machine.Topology
			)
			for _, m := range machines {
				var res *core.Result
				res, top = scratchResult(t, m, windows, par)
				runs = append(runs, res.Runs...)
				sums.add(res)
			}
			sums.check(t, "merged snapshot", merged)

			if got, want := len(merged.Result.Runs), len(runs); got != want {
				t.Fatalf("merged runs = %d, from scratch = %d", got, want)
			}
			if !reflect.DeepEqual(merged.Result.Runs, runs) {
				t.Fatal("merged run sequence differs from from-scratch concatenation")
			}
			if !reflect.DeepEqual(merged.Shards, vector) {
				t.Fatalf("epoch vector = %+v, want %+v", merged.Shards, vector)
			}

			wantOut := metrics.Outcomes(runs)
			wantCat := metrics.ByCategory(runs)
			wantXE, err := metrics.FailureProbabilityByScale(runs, metrics.GeometricBuckets(top.NumXE()), machine.ClassXE)
			if err != nil {
				t.Fatal(err)
			}
			wantXK, err := metrics.FailureProbabilityByScale(runs, metrics.GeometricBuckets(top.NumXK()), machine.ClassXK)
			if err != nil {
				t.Fatal(err)
			}
			wantMTTI, err := metrics.MTTIByScale(runs, metrics.GeometricBuckets(top.NumNodes()), 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, cmp := range []struct {
				name      string
				got, want any
			}{
				{"outcomes", merged.Outcomes, wantOut},
				{"categories", merged.Categories, wantCat},
				{"scaling_xe", merged.ScalingXE, wantXE},
				{"scaling_xk", merged.ScalingXK, wantXK},
				{"mtti", merged.MTTI, wantMTTI},
			} {
				got, want := mustJSON(t, cmp.got), mustJSON(t, cmp.want)
				if !bytes.Equal(got, want) {
					t.Errorf("%s view not byte-identical to from-scratch:\n got: %s\nwant: %s", cmp.name, got, want)
				}
			}

			// Every run resolves through the merged drill-down index.
			for _, r := range runs {
				got, ok := merged.Run(r.ApID)
				if !ok {
					t.Fatalf("merged snapshot missing run %d", r.ApID)
				}
				if !reflect.DeepEqual(got, r) {
					t.Fatalf("run %d differs through merged index", r.ApID)
				}
			}
			if merged.TotalRuns() != len(runs) {
				t.Fatalf("TotalRuns = %d, want %d", merged.TotalRuns(), len(runs))
			}
		})
	}
}

// checkConservation asserts the conservation laws of a snapshot's
// aggregate and views: the aggregate passes its exact-integer Check and
// equals a fresh fold of the runs (on a merged snapshot, also the sum of its
// parts' aggregates); outcome counts sum to the runs and node-hours by
// outcome to the total; the XE and XK scaling buckets sum to the class
// totals, which together are every run; MTTI covers every run; and the
// category failures sum to the system failures.
func checkConservation(t *testing.T, what string, s *Snapshot) {
	t.Helper()
	runs := s.Result.Runs
	if err := s.agg.Check(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !reflect.DeepEqual(s.agg, metrics.Fold(runs)) {
		t.Fatalf("%s: aggregate differs from a fold of its %d runs", what, len(runs))
	}
	if s.parts != nil {
		var sum metrics.Aggregate
		for _, p := range s.parts {
			sum.Merge(&p.agg)
		}
		if !reflect.DeepEqual(s.agg, sum) {
			t.Fatalf("%s: aggregate differs from the sum of its %d parts'", what, len(s.parts))
		}
	}
	o := s.Outcomes
	counted, hours := 0, 0.0
	for c, n := range o.Counts {
		counted += n
		hours += o.NodeHours[c]
	}
	if o.Total != len(runs) || counted != o.Total || s.TotalRuns() != o.Total {
		t.Errorf("%s: %d runs, outcome total %d, counts sum to %d, index holds %d", what, len(runs), o.Total, counted, s.TotalRuns())
	}
	if math.Abs(hours-o.TotalNodeHours) > 1e-9*o.TotalNodeHours {
		t.Errorf("%s: node-hours by outcome sum to %v, total %v", what, hours, o.TotalNodeHours)
	}
	classRuns := map[machine.NodeClass]int{}
	for i := range runs {
		classRuns[runs[i].Class]++
	}
	for class, buckets := range map[machine.NodeClass][]metrics.ScaleBucket{machine.ClassXE: s.ScalingXE, machine.ClassXK: s.ScalingXK} {
		n := 0
		for _, b := range buckets {
			n += b.Runs
		}
		if n != classRuns[class] {
			t.Errorf("%s: %v scaling buckets hold %d runs, the class has %d", what, class, n, classRuns[class])
		}
	}
	mtti := 0
	for _, b := range s.MTTI {
		mtti += b.Runs
	}
	if classRuns[machine.ClassXE]+classRuns[machine.ClassXK] != len(runs) || mtti != len(runs) {
		t.Errorf("%s: XE %d + XK %d runs, MTTI buckets %d, of %d runs", what, classRuns[machine.ClassXE], classRuns[machine.ClassXK], mtti, len(runs))
	}
	failures := 0
	for _, c := range s.Categories {
		failures += c.Failures
	}
	if failures != o.Counts[correlate.OutcomeSystemFailure] {
		t.Errorf("%s: categories hold %d failures, %d system failures", what, failures, o.Counts[correlate.OutcomeSystemFailure])
	}
}

// checkFloatViews checks a snapshot's views against a float walk over its
// runs that shares no code with metrics.Aggregate: counts exactly, hours
// within 1e-12 relative. xe, xk and all are the scaling and MTTI bounds.
func checkFloatViews(t *testing.T, s *Snapshot, xe, xk, all []int) {
	t.Helper()
	near := func(what string, got, want float64) {
		if math.Abs(got-want) > 1e-12*math.Abs(want) {
			t.Errorf("%s: %v, the float walk gives %v", what, got, want)
		}
	}
	type bucket struct {
		lo, hi, runs, failures int
		hours                  float64
	}
	walk := func(bounds []int, class machine.NodeClass) []bucket {
		out := make([]bucket, len(bounds)-1)
		for i := range out {
			out[i].lo, out[i].hi = bounds[i], bounds[i+1]
		}
		for _, r := range s.Result.Runs {
			for i := range out {
				if (class == 0 || r.Class == class) && out[i].lo <= r.NumNodes() && r.NumNodes() < out[i].hi {
					out[i].runs++
					out[i].hours += r.Duration().Hours()
					if r.Outcome == correlate.OutcomeSystemFailure {
						out[i].failures++
					}
				}
			}
		}
		return out
	}
	for class, c := range map[machine.NodeClass]struct {
		got    []metrics.ScaleBucket
		bounds []int
	}{machine.ClassXE: {s.ScalingXE, xe}, machine.ClassXK: {s.ScalingXK, xk}} {
		want := walk(c.bounds, class)
		if len(c.got) != len(want) {
			t.Fatalf("%v scaling: %d buckets, want %d", class, len(c.got), len(want))
		}
		for i, w := range want {
			g := c.got[i]
			p, _ := stats.Wilson(w.failures, w.runs, 1.96)
			if g.Lo != w.lo || g.Hi != w.hi || g.Runs != w.runs || g.Failures != w.failures || w.runs > 0 && g.Prob != p {
				t.Errorf("%v scaling bucket %d: %+v, the float walk gives %+v", class, i, g, w)
			}
		}
	}
	want := walk(all, 0)
	if len(s.MTTI) != len(want) {
		t.Fatalf("mtti: %d buckets, want %d", len(s.MTTI), len(want))
	}
	for i, w := range want {
		g := s.MTTI[i]
		if g.Lo != w.lo || g.Hi != w.hi || g.Runs != w.runs || g.Interrupts != w.failures {
			t.Errorf("mtti bucket %d: %+v, the float walk gives %+v", i, g, w)
		}
		near(fmt.Sprintf("mtti bucket %d exposure", i), g.ExposureHours, w.hours)
		if w.failures > 0 {
			near(fmt.Sprintf("mtti bucket %d MTTI", i), g.MTTIHours, w.hours/float64(w.failures))
		}
	}

	counts := map[correlate.Outcome]int{}
	hours := map[correlate.Outcome]float64{}
	var total float64
	byCause := map[taxonomy.Category]*metrics.CategoryShare{}
	for _, r := range s.Result.Runs {
		counts[r.Outcome]++
		hours[r.Outcome] += r.NodeHours()
		total += r.NodeHours()
		if r.Outcome == correlate.OutcomeSystemFailure {
			if byCause[r.Cause] == nil {
				byCause[r.Cause] = &metrics.CategoryShare{Group: r.Cause.Group(), Category: r.Cause}
			}
			byCause[r.Cause].Failures++
			byCause[r.Cause].NodeHoursLost += r.NodeHours()
		}
	}
	o := s.Outcomes
	if o.Total != len(s.Result.Runs) || !reflect.DeepEqual(o.Counts, counts) || len(o.NodeHours) != len(hours) {
		t.Errorf("outcomes: %d runs %v, the float walk gives %d runs %v", o.Total, o.Counts, len(s.Result.Runs), counts)
	}
	near("total node-hours", o.TotalNodeHours, total)
	for c, h := range hours {
		near(fmt.Sprintf("%v node-hours", c), o.NodeHours[c], h)
	}
	cats := make([]metrics.CategoryShare, 0, len(byCause))
	for _, c := range byCause {
		cats = append(cats, *c)
	}
	sort.Slice(cats, func(i, j int) bool {
		if cats[i].Failures != cats[j].Failures {
			return cats[i].Failures > cats[j].Failures
		}
		return cats[i].Category < cats[j].Category
	})
	if len(s.Categories) != len(cats) {
		t.Fatalf("categories: %d, the float walk gives %d", len(s.Categories), len(cats))
	}
	for i, w := range cats {
		g := s.Categories[i]
		if g.Group != w.Group || g.Category != w.Category || g.Failures != w.Failures {
			t.Errorf("category %d: %+v, the float walk gives %+v", i, g, w)
		}
		near(fmt.Sprintf("category %v node-hours", w.Category), g.NodeHoursLost, w.NodeHoursLost)
	}
}

// TestMergeLaws proves the algebra: associative, commutative, identity.
func TestMergeLaws(t *testing.T) {
	machines := fleetFixture(t, 4)
	snaps := make([]*Snapshot, len(machines))
	var sums retainedSums // of the first three shards
	for i, m := range machines {
		res, top := scratchResult(t, m, 1, 1)
		if i < 3 {
			sums.add(res)
		}
		snaps[i] = buildShard(t, res, top, m.Name, uint64(i+1))
	}
	s0, s1, s2, s3 := snaps[0], snaps[1], snaps[2], snaps[3]

	t.Run("conservation", func(t *testing.T) {
		for _, s := range snaps {
			checkConservation(t, "shard "+s.Machine, s)
		}
		checkConservation(t, "s0+s1", Merge(s0, s1))
		checkConservation(t, "s0+s1+s2+s3", Merge(s3, s1, s0, s2))
		checkConservation(t, "(s0+s1)+(s2+s3)", Merge(Merge(s0, s1), Merge(s2, s3)))
		checkConservation(t, "lone s2", Merge(Zero(), s2))
	})
	t.Run("topologies", func(t *testing.T) {
		// A shard on a bigger machine: the merged aggregate is still the
		// sum of the parts', and the views — bucketed over the union's
		// extents — are what a float walk over the concatenated runs gives.
		m := fleetFixture(t, 5)[4]
		m.Config.Machine = machine.Config{Cols: 6, Rows: 4, XKCabinets: 5, ServiceNodesPerCabinet: 1}
		res, top := scratchResult(t, m, 1, 1)
		big := buildShard(t, res, top, m.Name, 1)
		if big.NumXE <= s0.NumXE || big.NumXK <= s0.NumXK {
			t.Fatalf("extents %d/%d vs %d/%d: the shards share a topology", big.NumXE, big.NumXK, s0.NumXE, s0.NumXK)
		}
		merged := Merge(s0, big, s1)
		checkConservation(t, "mixed topologies", merged)
		if !reflect.DeepEqual(merged, Merge(Merge(big, s1), s0)) {
			t.Fatal("merge over mixed topologies depends on the tree")
		}
		checkFloatViews(t, merged, metrics.GeometricBuckets(big.NumXE), metrics.GeometricBuckets(big.NumXK), metrics.GeometricBuckets(big.NumNodes))
	})

	t.Run("associative", func(t *testing.T) {
		left := Merge(Merge(s0, s1), s2)
		right := Merge(s0, Merge(s1, s2))
		if !reflect.DeepEqual(left, right) {
			t.Fatal("(s0+s1)+s2 != s0+(s1+s2)")
		}
	})
	t.Run("every_tree", func(t *testing.T) {
		// Every order and both associations of the three shards, with the
		// identity mixed in, give the one snapshot — counts included.
		want := Merge(Merge(s0, s1), s2)
		sums.check(t, "(s0+s1)+s2", want)
		for _, p := range [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
			a, b, c := snaps[p[0]], snaps[p[1]], snaps[p[2]]
			for name, got := range map[string]*Snapshot{
				"(a+b)+c":     Merge(Merge(a, b), c),
				"a+(b+c)":     Merge(a, Merge(b, c)),
				"((0+a)+b)+c": Merge(Merge(Merge(Zero(), a), b), c),
				"a+((b+0)+c)": Merge(a, Merge(Merge(b, nil), c)),
			} {
				if !reflect.DeepEqual(got, want) {
					t.Errorf("order %v, tree %s differs from (s0+s1)+s2", p, name)
				}
				sums.check(t, name, got)
			}
		}
	})
	t.Run("nary", func(t *testing.T) {
		// One n-ary call is every pairwise tree, in every argument order,
		// with identities anywhere in the list.
		want3 := Merge(Merge(s0, s1), s2)
		want4 := Merge(want3, s3)
		if reflect.DeepEqual(want3, want4) {
			t.Fatal("the fourth shard changed nothing; the 4-shard cases prove nothing")
		}
		permute(4, func(p []int) {
			a, b, c, d := snaps[p[0]], snaps[p[1]], snaps[p[2]], snaps[p[3]]
			for name, got := range map[string]*Snapshot{
				"a,b,c,d":         Merge(a, b, c, d),
				"0,a,b,nil,c,d,0": Merge(Zero(), a, b, nil, c, d, Zero()),
				"((a+b)+c)+d":     Merge(Merge(Merge(a, b), c), d),
				"(a+(b+c))+d":     Merge(Merge(a, Merge(b, c)), d),
				"(a+b)+(c+d)":     Merge(Merge(a, b), Merge(c, d)),
				"a+((b+c)+d)":     Merge(a, Merge(Merge(b, c), d)),
				"a+(b+(c+d))":     Merge(a, Merge(b, Merge(c, d))),
				"(a,b),c,d":       Merge(Merge(a, b), c, d),
				"a,(b,c,d)":       Merge(a, Merge(b, c, d)),
			} {
				if !reflect.DeepEqual(got, want4) {
					t.Errorf("4 shards, order %v, tree %s differs from ((s0+s1)+s2)+s3", p, name)
				}
			}
		})
		permute(3, func(p []int) {
			a, b, c := snaps[p[0]], snaps[p[1]], snaps[p[2]]
			for name, got := range map[string]*Snapshot{
				"a,b,c":     Merge(a, b, c),
				"nil,a,b,c": Merge(nil, a, b, c),
				"(a,b),c":   Merge(Merge(a, b), c),
				"a,(b,c)":   Merge(a, Merge(b, c)),
			} {
				if !reflect.DeepEqual(got, want3) {
					t.Errorf("3 shards, order %v, tree %s differs from (s0+s1)+s2", p, name)
				}
				sums.check(t, name, got)
			}
		})
		if !reflect.DeepEqual(Merge(), Zero()) {
			t.Fatal("Merge() is not the identity")
		}
		// One non-identity argument among any number of identities is still
		// lifted, not copied: a fleet of one shares its shard's runs.
		s01 := Merge(s0, s1)
		for i, c := range []struct{ got, src *Snapshot }{
			{Merge(s0), s0}, {Merge(Zero(), s01), s01}, {Merge(nil, s01, Zero(), nil), s01},
		} {
			if unsafe.SliceData(c.got.Result.Runs) != unsafe.SliceData(c.src.Result.Runs) {
				t.Fatalf("case %d: lifting a lone argument copied the runs", i)
			}
		}
	})
	t.Run("commutative", func(t *testing.T) {
		for _, pair := range [][2]*Snapshot{{s0, s1}, {s1, s2}, {s0, s2}} {
			ab := Merge(pair[0], pair[1])
			ba := Merge(pair[1], pair[0])
			if !reflect.DeepEqual(ab, ba) {
				t.Fatalf("merge of %s/%s not commutative", pair[0].Machine, pair[1].Machine)
			}
		}
	})
	t.Run("identity", func(t *testing.T) {
		for name, id := range map[string]*Snapshot{"zero": Zero(), "nil": nil} {
			for _, m := range []*Snapshot{Merge(id, s0), Merge(s0, id)} {
				if m == s0 {
					t.Fatalf("%s identity merge aliases its argument", name)
				}
				if !reflect.DeepEqual(m.Result.Runs, s0.Result.Runs) {
					t.Fatalf("%s identity merge changed the runs", name)
				}
				want := []ShardEpoch{{Machine: s0.Machine, Epoch: s0.Epoch}}
				if !reflect.DeepEqual(m.EpochVector(), want) {
					t.Fatalf("%s identity vector = %+v, want %+v", name, m.EpochVector(), want)
				}
				if !reflect.DeepEqual(m.Outcomes, s0.Outcomes) {
					t.Fatalf("%s identity merge changed the outcomes", name)
				}
				if m.Result.NumJobs != s0.Result.NumJobs || m.Result.NumEvents != s0.Result.NumEvents {
					t.Fatalf("%s identity merge changed the counts", name)
				}
			}
			// The identity merge shares the runs, of a shard snapshot and of
			// an already merged one alike.
			s01 := Merge(s0, s1)
			for _, s := range []*Snapshot{s0, s01} {
				for _, m := range []*Snapshot{Merge(id, s), Merge(s, id)} {
					if unsafe.SliceData(m.Result.Runs) != unsafe.SliceData(s.Result.Runs) {
						t.Fatalf("%s identity merge copied the runs", name)
					}
					if m2 := Merge(m, s2); !reflect.DeepEqual(m2, Merge(s, s2)) {
						t.Fatalf("%s identity merge result does not merge like its argument", name)
					}
				}
			}
		}
		if z := Merge(nil, nil); !reflect.DeepEqual(z, Zero()) {
			t.Fatal("merge of two identities is not the identity")
		}
	})
	t.Run("never_aliases", func(t *testing.T) {
		// Installing a merged (even single-shard) snapshot into a fleet
		// store must not disturb the shard's own epoch.
		before := s0.Epoch
		fleet := New()
		fleet.Install(Merge(Zero(), s0))
		if s0.Epoch != before {
			t.Fatalf("installing the merged snapshot changed the shard epoch: %d -> %d", before, s0.Epoch)
		}
	})
	t.Run("partial_propagates", func(t *testing.T) {
		p := Merge(Zero(), s0)
		p.Partial = true
		if m := Merge(p, s1); !m.Partial {
			t.Fatal("partial flag lost in merge")
		}
		if m := Merge(s1, p); !m.Partial {
			t.Fatal("partial flag lost in merge (right argument)")
		}
	})
}

// permute calls f with every permutation of 0..n-1 (Heap's algorithm); f must
// not keep p.
func permute(n int, f func(p []int)) {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == 1 {
			f(p)
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				p[i], p[k-1] = p[k-1], p[i]
			} else {
				p[0], p[k-1] = p[k-1], p[0]
			}
		}
	}
	rec(n)
}

// mergePair is the two-shard input of BenchmarkMerge and the allocation
// ceiling below.
func mergePair(t testing.TB) (a, c *Snapshot) {
	machines := fleetFixture(t, 2)
	return scratchShard(t, machines[0], 1, 0, 1), scratchShard(t, machines[1], 1, 0, 1)
}

// BenchmarkMerge measures one pairwise fleet merge. Its wall time is gated
// end to end by bench/ (epoch_advance_ms, layer store.merge_ms).
func BenchmarkMerge(b *testing.B) {
	a, c := mergePair(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := Merge(a, c); m.TotalRuns() == 0 {
			b.Fatal("empty merge")
		}
	}
}

// TestMergeAllocCeiling: a merge allocates per output slice and per
// aggregate, never per run. Measured 22 (32 while a merge re-aggregated the
// concatenated runs and GeometricBuckets grew its bounds by appending; 35
// while the run index was a map plus a sorted apid slice).
func TestMergeAllocCeiling(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const ceiling = 23
	a, c := mergePair(t)
	if n := testing.AllocsPerRun(20, func() { Merge(a, c) }); n > ceiling {
		t.Errorf("Merge of two one-day shards: %.0f allocs/op, ceiling %d", n, ceiling)
	}
}

// TestMergeSumsStageDurations: like BuildDuration, the append and result
// stage durations of a merged snapshot are the sums over its parts.
func TestMergeSumsStageDurations(t *testing.T) {
	a, c := pageSnapshot(t, []uint64{1, 2}), pageSnapshot(t, []uint64{3})
	a.Machine, c.Machine = "a", "c"
	a.Ingest = IngestStats{Rounds: 1, BuildDuration: 9 * time.Millisecond, AppendDuration: 2 * time.Millisecond, ResultDuration: 3 * time.Millisecond}
	c.Ingest = IngestStats{Rounds: 2, BuildDuration: 90 * time.Millisecond, AppendDuration: 20 * time.Millisecond, ResultDuration: 30 * time.Millisecond}
	want := IngestStats{Rounds: 3, BuildDuration: 99 * time.Millisecond, AppendDuration: 22 * time.Millisecond, ResultDuration: 33 * time.Millisecond}
	if got := Merge(a, c).Ingest; got != want {
		t.Errorf("merged ingest stats %+v, want %+v", got, want)
	}
}

// TestMergedIndexIsSortedConcatenation: the merged apid index, built by
// merging the parts' sorted indexes, is the index a sort of the
// concatenated runs gives — for any number of parts, apids repeated within
// and across parts included — so a repeated apid resolves to its run in the
// first part (by machine name) that has it.
func TestMergedIndexIsSortedConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for k := 2; k <= 7; k++ {
		parts := make([]*Snapshot, k)
		for i := range parts {
			apids := make([]uint64, 1+rng.Intn(30))
			for j := range apids {
				apids[j] = uint64(1 + rng.Intn(40))
			}
			parts[i] = pageSnapshot(t, apids)
			parts[i].Machine = fmt.Sprintf("m%d", i)
		}
		rng.Shuffle(k, func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
		m := Merge(parts...)
		if want := indexApIDs(m.Result.Runs); !reflect.DeepEqual(m.byApID, want) {
			t.Fatalf("%d parts: merged index\n%v\nsorting the concatenation gives\n%v", k, m.byApID, want)
		}
		for apid := uint64(1); apid <= 40; apid++ {
			got, ok := m.Run(apid)
			for _, p := range m.parts { // machine-name order
				if want, has := p.Run(apid); has {
					if !ok || !reflect.DeepEqual(got, want) {
						t.Fatalf("%d parts: apid %d resolves to %+v, want %s's run %+v", k, apid, got, p.Machine, want)
					}
					ok = false
					break
				}
			}
			if ok {
				t.Fatalf("%d parts: apid %d resolves though no part has it", k, apid)
			}
		}
	}
}
