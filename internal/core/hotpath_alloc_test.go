package core

import (
	"testing"

	"logdiver/internal/errlog"
	"logdiver/internal/machine"
	"logdiver/internal/raceflag"
	"logdiver/internal/syslogx"
	"logdiver/internal/taxonomy"
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
