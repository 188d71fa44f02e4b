package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the harness must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// mayBeZero lists per-layer metrics that legitimately read 0: nothing was
// shed, a short phase saw no collection, clean archives have no malformed
// accounting lines, a hit-path query phase renders nothing, and at 1/20
// scale the difference of two timings behind core.ingest_self_ms is noise.
func mayBeZero(name string) bool {
	return strings.HasPrefix(name, "go.gc_") || name == "serve.shed" || name == "serve.cache_renders" ||
		strings.HasSuffix(name, ".malformed_ratio") || name == "core.ingest_self_ms"
}

// TestSmoke runs every workload at 1/20 scale for one cycle, untraced and
// traced, and checks that exactly the metrics BENCHMARK.json names come out,
// finite and positive, with no failed operation. It keeps the harness
// compiling and running against refactors of internal/.
func TestSmoke(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil { // the harness runs from the repository root
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) }) // after the parallel subtests

	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(bf.Workloads), len(workloads))
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the harness has %d", len(bf.EndToEnd), len(endToEnd))
	}
	wantE2E := map[string]string{}
	for i, d := range endToEnd {
		j := bf.EndToEnd[i]
		if j.Name != d.name || j.Unit != d.unit || j.Better != d.better || j.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, the harness has %+v", i, j, d)
		}
		wantE2E[d.name] = d.unit
	}
	wantLayer := map[string]string{}
	for _, m := range bf.PerLayer {
		wantLayer[m.Name] = m.Unit
	}

	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workloads[%d] = %q, the harness has %q", i, bf.Workloads[i].Name, w.name)
		}
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			want := wantE2E
			if trace {
				want = wantLayer
			}
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				t.Parallel()
				var stderr bytes.Buffer
				res, err := run(options{
					workload: w.name, seed: 1, scale: 0.05, trace: trace,
					setups: 1, cycles: 1,
					workDir: t.TempDir(), outDir: t.TempDir(),
					stdout: io.Discard, stderr: &stderr,
				})
				if err != nil {
					t.Fatalf("%v\n%s", err, stderr.String())
				}
				if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
					t.Errorf("attempted %d, failed %d, correct %v\n%s", res.Attempted, res.Failed, res.Correct, stderr.String())
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", name)
					case got.Unit != unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", name, got.Unit, unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value < 0:
						t.Errorf("metric %s = %v", name, got.Value)
					case got.Value == 0 && !(trace && mayBeZero(name)):
						t.Errorf("metric %s is 0", name)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s emitted but not in BENCHMARK.json", name)
					}
				}
			})
		}
	}
}
