package core

import (
	"strings"
	"testing"
	"time"

	"logdiver/internal/errlog"
	"logdiver/internal/machine"
	"logdiver/internal/parse"
	"logdiver/internal/raceflag"
	"logdiver/internal/stream"
	"logdiver/internal/syslogx"
	"logdiver/internal/taxonomy"
	"logdiver/internal/wlm"
)

// TestErrlogLineHotPathZeroAlloc gates the composed per-line path the
// errlog ingestion loop runs in steady state — byte-view syslog scan,
// literal-prefiltered classification, and warm host resolution. Each piece
// has its own gate in its package; this one catches allocation creeping
// into the composition (interface conversions, escape-analysis regressions
// at the call boundaries).
func TestErrlogLineHotPathZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items under the race detector; the fold-buffer pool misses and allocates")
	}
	top, err := machine.New(machine.Small())
	if err != nil {
		t.Fatal(err)
	}
	cls := taxonomy.Default()
	hc := errlog.NewHostCache()
	lines := [][]byte{
		[]byte("2013-04-03T12:34:56.123456Z c0-0c0s0n1 kernel: Machine Check Exception: uncorrected DRAM error on c0-0c0s0n1 bank 4 addr 0x00000a"),
		[]byte("2013-04-03T12:34:57.000001Z sdb xtevent: HSS alert: node heartbeat fault on c0-0c0s0n1, declaring node dead"),
		[]byte("2013-04-03T12:34:58.500000Z nid00012 app: user application wrote something weird"),
	}
	step := func() {
		for _, raw := range lines {
			v, skip, perr := syslogx.CheckLineBytes(raw)
			if skip || perr != nil {
				t.Fatal("canonical line rejected")
			}
			cat, _ := cls.ClassifyBytes(v.Msg)
			if cat == taxonomy.Unclassified {
				continue
			}
			hc.Resolve(v.Host, top)
		}
	}
	step() // warm the fold pool and host cache
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Errorf("composed errlog line path allocates %.1f allocs/op, want 0", n)
	}
}

// TestIdleLinesAllocateNothing gates the per-line branches of the block
// parsers that yield nothing — a blank line, a line under another tag, an
// unclassified message, CRLF endings and an unterminated last line: a block
// padded with 64 of each allocates exactly what the unpadded block does.
func TestIdleLinesAllocateNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items under the race detector; the fold-buffer pool misses and allocates")
	}
	top, err := machine.New(machine.Small())
	if err != nil {
		t.Fatal(err)
	}
	cls, hc := taxonomy.Default(), errlog.NewHostCache()
	idle := "\r\n2013-04-03T12:34:58.500000Z nid00012 app: user application wrote something weird\r\n"
	for _, tc := range []struct {
		name, line, idle string
		parse            func(b stream.Block) error
	}{
		{"syslog", "2013-04-03T12:34:57.000001Z sdb xtevent: HSS alert: node heartbeat fault on c0-0c0s0n1", idle,
			func(b stream.Block) error { _, err := parseSyslogBlock(b, top, cls, hc, parse.Lenient); return err }},
		{"apsys", "2013-04-03T12:34:56.123456Z nid00012 apsys: apid=9, Finishing, exit_code=0, signal=0, node_cnt=2", idle,
			func(b stream.Block) error { _, err := parseApsysBlockBytes(b, parse.Lenient); return err }},
		{"accounting", "04/03/2013 13:00:00;E;123.bw;user=bob Exit_status=265", "\r\n",
			func(b stream.Block) error {
				_, _, err := wlm.ScanBlockMode(b.Data, nil, b.FirstLine, parse.Lenient)
				return err
			}},
	} {
		bare := []byte(tc.line + "\n")
		padded := []byte(tc.line + "\n" + strings.Repeat(tc.idle, 64) + strings.TrimSuffix(tc.idle, "\r\n"))
		allocs := func(data []byte) float64 {
			return testing.AllocsPerRun(50, func() {
				if err := tc.parse(stream.Block{Data: data, FirstLine: 1}); err != nil {
					t.Fatal(err)
				}
			})
		}
		if b, p := allocs(bare), allocs(padded); p != b {
			t.Errorf("%s: a block allocates %.1f allocs/op, %.1f with 64 rounds of idle lines; want equal", tc.name, b, p)
		}
	}
}

// TestRepeatedAccountingRecordAllocs gates the accounting sink of Append: a
// record for a job the round has already marked dirty allocates nothing, so
// a chunk of K records of one held job allocates about what one record does.
// The bound, less than K/2 more from K=1 to K=64, fails a sink that builds
// the job-ID key once per record.
func TestRepeatedAccountingRecordAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	top, err := machine.New(machine.Small())
	if err != nil {
		t.Fatal(err)
	}
	const rec = "04/03/2013 13:00:00;E;123.bw;user=bob Exit_status=265\n"
	inc, err := NewIncremental(top, time.UTC, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Append(Delta{Accounting: []byte(rec)}); err != nil {
		t.Fatal(err)
	}
	allocs := func(k int) float64 {
		d := Delta{Accounting: []byte(strings.Repeat(rec, k))}
		return testing.AllocsPerRun(20, func() {
			if _, err := inc.Append(d); err != nil {
				t.Fatal(err)
			}
		})
	}
	const k = 64
	one, many := allocs(1), allocs(k)
	if inc.wlmAsm.Len() != 1 {
		t.Fatalf("the repeated record assembled %d jobs, want 1", inc.wlmAsm.Len())
	}
	if many-one >= k/2 {
		t.Errorf("Append of %d records of one held job allocates %.1f, of one record %.1f: want less than %d more",
			k, many, one, k/2)
	}
}
