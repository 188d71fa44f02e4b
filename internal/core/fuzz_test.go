package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"logdiver/internal/errlog"
	"logdiver/internal/mutate"
	"logdiver/internal/parse"
	"logdiver/internal/stream"
	"logdiver/internal/syslogx"
	"logdiver/internal/taxonomy"
)

// fuzzInputCap keeps individual fuzz executions fast; the parsers' large-line
// behavior is covered by the oversize seeds below (parse.MaxLineBytes is a
// per-line cap, exercised via mutate's oversize operator at smaller scale).
const fuzzInputCap = 64 << 10

// mutateSeeds corrupts a clean archive once per operator and returns the
// variants: the fuzz corpus starts from every corruption class the
// robustness suite defends against, not just from hand-written typos.
func mutateSeeds(clean []byte) [][]byte {
	seeds := [][]byte{clean}
	for i, op := range mutate.AllOps() {
		cfg := mutate.Config{Seed: int64(i + 1), Ops: []mutate.Op{op}, MaxPerOp: 2}
		if op == mutate.OpOversize {
			// Keep oversize seeds within the input cap: enough padding to
			// matter, not a megabyte per seed.
			continue
		}
		out, m := mutate.Apply(clean, cfg)
		if len(m.Mutations) > 0 {
			seeds = append(seeds, out)
		}
	}
	return seeds
}

func cleanSyslog(n int) []byte {
	var b strings.Builder
	base := time.Date(2013, 4, 3, 12, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		b.WriteString(syslogx.Format(syslogx.Line{
			Time: base.Add(time.Duration(i) * time.Second),
			Host: "c0-0c0s0n1", Tag: "kernel", Message: "machine check exception",
		}))
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

func cleanApsys(n int) []byte {
	var b strings.Builder
	base := time.Date(2013, 4, 3, 12, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		b.WriteString(syslogx.Format(syslogx.Line{
			Time: base.Add(time.Duration(i) * time.Second),
			Host: "nid00005", Tag: "apsys",
			Message: "apid=100, Starting, user=alice, batch_id=9.bw, cmd=a.out, width=16, num_nodes=1, node_list=5",
		}))
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// FuzzParseSyslog pins the syslog block parser ingestion runs to its
// bufio.Scanner reference (same per-line parser and classifier, uncached
// topology lookup) on arbitrary archives. The accounting block parser's
// counterpart, FuzzParseAccounting, lives in internal/wlm beside it.
func FuzzParseSyslog(f *testing.F) {
	for _, seed := range mutateSeeds(cleanSyslog(12)) {
		f.Add(seed)
	}
	f.Add([]byte("not a syslog line\n\n2013-04-03T12:00:00.000000+00:00 host tag: ok\n"))
	top, cls := blockTestTopology(f), taxonomy.Default()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzInputCap {
			return
		}
		block := stream.Block{Data: data, FirstLine: 1}
		got, err := parseSyslogBlock(block, top, cls, errlog.NewHostCache(), parse.Lenient)
		if err != nil {
			t.Fatalf("lenient block failed: %v", err)
		}
		want, err := refSyslogBlock(data, 1, top, cls, parse.Lenient)
		if err != nil {
			t.Fatalf("lenient reference failed: %v", err)
		}
		sameSysChunk(t, got, want)

		_, blockErr := parseSyslogBlock(block, top, cls, errlog.NewHostCache(), parse.Strict)
		_, refErr := refSyslogBlock(data, 1, top, cls, parse.Strict)
		sameStrictError(t, blockErr, refErr)
	})
}

// FuzzParseApsys pins the apsys block parser ingestion runs to its
// bufio.Scanner reference over checkApsysLineBytes on arbitrary archives:
// identical line counts, malformed-line accounting, paired runs and
// strict-mode failure.
func FuzzParseApsys(f *testing.F) {
	for _, seed := range mutateSeeds(cleanApsys(12)) {
		f.Add(seed)
	}
	f.Add([]byte("2013-04-03T12:00:00.000000+00:00 nid00005 apsys: apid=bad, Starting\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzInputCap {
			return
		}
		got, err := gotApsysBlock(data, 1, parse.Lenient)
		if err != nil {
			t.Fatalf("lenient block failed: %v", err)
		}
		want, err := refApsysBlock(data, 1, parse.Lenient)
		if err != nil {
			t.Fatalf("lenient reference failed: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("block diverges from the reference:\n block     %+v\n reference %+v", got, want)
		}

		_, blockErr := gotApsysBlock(data, 1, parse.Strict)
		_, refErr := refApsysBlock(data, 1, parse.Strict)
		sameStrictError(t, blockErr, refErr)
		if (blockErr == nil) != (got.stats.Malformed() == 0) {
			t.Fatalf("strict err %v but lenient counted %d malformed", blockErr, got.stats.Malformed())
		}
	})
}
