package serve

import (
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"logdiver/internal/core"
)

var (
	promSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$`)
	promLabel  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$`)
)

// lintExposition checks a /metrics body against the text-format rules a
// Prometheus scraper enforces: every sample belongs to a family with exactly
// one TYPE line, declared before the sample; _sum/_count series exist only
// under a summary; label values are quoted; no series appears twice.
func lintExposition(t *testing.T, text string) {
	t.Helper()
	types := map[string]string{}
	series := map[string]bool{}
	for no, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "#" {
			if f[1] == "TYPE" {
				if len(f) != 4 {
					t.Errorf("line %d: malformed TYPE line %q", no+1, line)
					continue
				}
				if _, dup := types[f[2]]; dup {
					t.Errorf("line %d: second TYPE line for %s", no+1, f[2])
				}
				types[f[2]] = f[3]
			}
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %d: not a sample: %q", no+1, line)
			continue
		}
		name, labels, value := m[1], m[2], m[3]
		family := name
		for _, suffix := range []string{"_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && types[name] == "" {
				family = base
				if types[base] != "summary" {
					t.Errorf("line %d: %s under family %s of type %q, want summary", no+1, name, base, types[base])
				}
			}
		}
		if types[family] == "" {
			t.Errorf("line %d: sample %s before any TYPE line for its family", no+1, name)
		}
		if labels != "" {
			// No label value here contains a comma: endpoint keys, shed
			// reasons and shard names are all [A-Za-z0-9._-].
			for _, l := range strings.Split(labels, ",") {
				if !promLabel.MatchString(l) {
					t.Errorf("line %d: label %q is not name=\"quoted value\"", no+1, l)
				}
			}
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Errorf("line %d: value %q: %v", no+1, value, err)
		}
		if key := name + "{" + labels + "}"; series[key] {
			t.Errorf("line %d: duplicate series %s", no+1, key)
		} else {
			series[key] = true
		}
	}
}

// TestMetricsExpositionLint scrapes real servers — the one-shard shape
// `logdiverd -data-dir` boots and a three-shard fleet — after some traffic on
// every endpoint family, and lints what a scraper would read.
func TestMetricsExpositionLint(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{{"one-shard", 1}, {"three-shards", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			mgr, ts, _ := newTestFleet(t, tc.shards, core.Options{})
			mgr.SyncRound(t.Context())
			machine := mgr.Machines()[0]
			for _, path := range []string{
				"/v1/health", "/v1/outcomes", "/v1/fleet/outcomes", "/v1/scaling?class=zz",
				"/v1/mtti?machine=" + machine, "/v1/fleet/categories?machine=nope", "/v1/runs", "/metrics",
			} {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			text := string(body)
			lintExposition(t, text)
			for _, want := range []string{
				"# TYPE logdiver_http_request_duration_seconds summary\n",
				`logdiver_http_request_duration_seconds_count{endpoint="fleet_outcomes"} 1` + "\n",
				"logdiver_fleet_shards " + strconv.Itoa(tc.shards) + "\n",
				`logdiver_shard_up{machine="` + machine + `"} 1` + "\n",
				"logdiver_warm_restart 0\n",
			} {
				if !strings.Contains(text, want) {
					t.Errorf("metrics missing %q", want)
				}
			}
			if t.Failed() {
				t.Logf("scrape:\n%s", text)
			}
		})
	}
}
