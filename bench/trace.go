package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call (nothing inside the program is instrumented). Parent is the index
// of the enclosing span, -1 at the top.
type span struct {
	Name       string
	Parent     int
	Cycle      int
	Start, End time.Duration // since tracer start
}

// tracer keeps spans in memory and writes them when the run ends. Only the
// driving goroutine records spans, so there is no lock; client goroutines
// report latencies through their own slices.
type tracer struct {
	on       bool
	t0       time.Time
	workload string
	cycle    int
	spans    []span
	stack    []int
}

func noop() {}

// begin opens a span and returns the function that closes it. With tracing
// off it costs one branch and no allocation.
func (t *tracer) begin(name string) func() {
	if !t.on {
		return noop
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Cycle: t.cycle, Start: time.Since(t.t0)})
	t.stack = append(t.stack, id)
	return func() {
		t.spans[id].End = time.Since(t.t0)
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// selfTimes returns, per span, its duration minus the part its direct
// children cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// total sums the durations of every span called name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d
}

// selfByPrefix sums self (as selfTimes returned it) over the spans whose
// name starts with prefix.
func (t *tracer) selfByPrefix(self []time.Duration, prefix string) time.Duration {
	var d time.Duration
	for i, s := range t.spans {
		if strings.HasPrefix(s.Name, prefix) {
			d += self[i]
		}
	}
	return d
}

// write stores the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	self := t.selfTimes()
	for i, s := range t.spans {
		rec := struct {
			ID       int    `json:"id"`
			Parent   int    `json:"parent"`
			Name     string `json:"name"`
			Workload string `json:"workload"`
			Cycle    int    `json:"cycle"`
			StartNS  int64  `json:"start_ns"`
			EndNS    int64  `json:"end_ns"`
			SelfNS   int64  `json:"self_ns"`
		}{i, s.Parent, s.Name, t.workload, s.Cycle, int64(s.Start), int64(s.End), int64(self[i])}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- small statistics ----

// quantile is the linear-interpolated q-quantile of v (0 <= q <= 1).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func durationsMS(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = ms(x)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func mb(n int) float64           { return float64(n) / 1e6 }

// mbps is decimal megabytes per second.
func mbps(bytes int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return mb(bytes) / d.Seconds()
}

// procStatusKB reads one "Key:   N kB" field of /proc/self/status.
func procStatusKB(key string) (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", key)
}

func sum(d []time.Duration) time.Duration {
	var total time.Duration
	for _, x := range d {
		total += x
	}
	return total
}
