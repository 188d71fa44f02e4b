package mutate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"logdiver/internal/parse"
	"logdiver/internal/syslogx"
	"logdiver/internal/wlm"
)

// syslogInput builds n well-formed syslog lines.
func syslogInput(n int) []byte {
	var b strings.Builder
	base := time.Date(2013, 4, 3, 12, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%s c0-0c0s0n1 kernel: event number %d with some body text\n",
			base.Add(time.Duration(i)*time.Second).Format("2006-01-02T15:04:05.000000Z07:00"), i)
	}
	return []byte(b.String())
}

// accountingInput builds n well-formed accounting lines.
func accountingInput(n int) []byte {
	var b strings.Builder
	base := time.Date(2013, 4, 3, 12, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%s;E;%d.bw;Exit_status=0 user=alice queue=normal\n",
			base.Add(time.Duration(i)*time.Minute).Format("01/02/2006 15:04:05"), 100000+i)
	}
	return []byte(b.String())
}

func lines(data []byte) []string {
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}

func TestApplyDeterministic(t *testing.T) {
	in := syslogInput(200)
	cfg := Config{Seed: 42, Budget: 0.05}
	out1, m1 := Apply(in, cfg)
	out2, m2 := Apply(in, cfg)
	if !bytes.Equal(out1, out2) {
		t.Error("same seed produced different outputs")
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Error("same seed produced different manifests")
	}
	out3, _ := Apply(in, Config{Seed: 43, Budget: 0.05})
	if bytes.Equal(out1, out3) {
		t.Error("different seeds produced identical outputs")
	}
}

func TestApplyManifestMatchesOutput(t *testing.T) {
	in := syslogInput(300)
	out, m := Apply(in, Config{Seed: 7, Budget: 0.03, MaxPerOp: 3})
	got := lines(out)
	if m.OutputLines != len(got) {
		t.Fatalf("manifest OutputLines = %d, output has %d", m.OutputLines, len(got))
	}
	if m.InputLines != 300 {
		t.Errorf("InputLines = %d, want 300", m.InputLines)
	}
	seen := make(map[int]bool)
	for _, mu := range m.Mutations {
		if mu.Line < 1 || mu.Line > len(got) {
			t.Fatalf("%s mutation at line %d outside output (%d lines)", mu.Op, mu.Line, len(got))
		}
		if !mu.Corrupting {
			continue
		}
		if seen[mu.Line] {
			t.Errorf("line %d corrupted twice", mu.Line)
		}
		seen[mu.Line] = true
		line := got[mu.Line-1]
		if len(line) != mu.TextLen {
			t.Errorf("%s at line %d: output length %d, manifest TextLen %d", mu.Op, mu.Line, len(line), mu.TextLen)
		}
		if !strings.HasPrefix(line, mu.Text) {
			t.Errorf("%s at line %d: output %.60q does not start with manifest text %.60q", mu.Op, mu.Line, line, mu.Text)
		}
	}
}

func TestDuplicateInsertsCopies(t *testing.T) {
	in := syslogInput(50)
	out, m := Apply(in, Config{Seed: 3, Ops: []Op{OpDuplicate}, MaxPerOp: 1, BlockLines: 4})
	got := lines(out)
	if len(got) != 54 {
		t.Fatalf("output has %d lines, want 54", len(got))
	}
	if n := len(m.Mutations); n != 1 {
		t.Fatalf("%d mutations, want 1", n)
	}
	mu := m.Mutations[0]
	if mu.Op != "duplicate" || mu.Lines != 4 || mu.Corrupting {
		t.Fatalf("unexpected mutation %+v", mu)
	}
	for i := 0; i < mu.Lines; i++ {
		orig, dup := got[mu.Line-1-mu.Lines+i], got[mu.Line-1+i]
		if orig != dup {
			t.Errorf("inserted line %d is not a copy:\n orig %q\n dup  %q", mu.Line+i, orig, dup)
		}
	}
}

func TestReorderPreservesLines(t *testing.T) {
	in := syslogInput(60)
	out, m := Apply(in, Config{Seed: 5, Ops: []Op{OpReorder}, MaxPerOp: 2, BlockLines: 3})
	got, want := lines(out), lines(in)
	if len(got) != len(want) {
		t.Fatalf("line count changed: %d -> %d", len(want), len(got))
	}
	count := func(ls []string) map[string]int {
		c := make(map[string]int)
		for _, l := range ls {
			c[l]++
		}
		return c
	}
	if !reflect.DeepEqual(count(got), count(want)) {
		t.Error("reorder changed line contents, not just order")
	}
	if bytes.Equal(out, in) {
		t.Error("reorder left the archive unchanged")
	}
	for _, mu := range m.Mutations {
		if mu.Op != "reorder" || mu.Lines != 6 {
			t.Errorf("unexpected mutation %+v", mu)
		}
	}
}

func TestInterleaveMergesLines(t *testing.T) {
	in := syslogInput(40)
	out, m := Apply(in, Config{Seed: 11, Ops: []Op{OpInterleave}, MaxPerOp: 1})
	got := lines(out)
	if len(got) != 39 {
		t.Fatalf("output has %d lines, want 39", len(got))
	}
	mu := m.Mutations[0]
	if !mu.Corrupting || mu.Op != "interleave" {
		t.Fatalf("unexpected mutation %+v", mu)
	}
	// The torn line holds both victims' content: longer than any input line.
	if mu.TextLen <= len(lines(in)[0]) {
		t.Errorf("torn line length %d not longer than a single line", mu.TextLen)
	}
}

func TestOversizeExceedsCap(t *testing.T) {
	in := syslogInput(20)
	out, m := Apply(in, Config{Seed: 1, Ops: []Op{OpOversize}, MaxPerOp: 1})
	mu := m.Mutations[0]
	if mu.TextLen <= parse.MaxLineBytes {
		t.Fatalf("oversize line is %d bytes, want > %d", mu.TextLen, parse.MaxLineBytes)
	}
	line := lines(out)[mu.Line-1]
	if perr := parse.CheckLineBytes([]byte(line)); perr == nil || perr.Kind != parse.KindOversize {
		t.Errorf("oversized line checks as %v, want KindOversize", perr)
	}
}

func TestEncodingInjectsInvalidBytes(t *testing.T) {
	in := syslogInput(20)
	out, m := Apply(in, Config{Seed: 2, Ops: []Op{OpEncoding}, MaxPerOp: 1})
	mu := m.Mutations[0]
	line := lines(out)[mu.Line-1]
	if perr := parse.CheckLineBytes([]byte(line)); perr == nil || perr.Kind != parse.KindEncoding {
		t.Errorf("encoding-mutated line checks as %v, want KindEncoding", perr)
	}
}

func TestSkewKeepsLinesParseable(t *testing.T) {
	t.Run("syslog", func(t *testing.T) {
		in := syslogInput(20)
		out, m := Apply(in, Config{Seed: 4, Ops: []Op{OpSkew}, MaxPerOp: 1})
		mu := m.Mutations[0]
		l, _, perr := syslogx.CheckLineBytes([]byte(lines(out)[mu.Line-1]))
		if perr != nil {
			t.Fatalf("skewed syslog line no longer parses: %v", perr)
		}
		orig, _, perr := syslogx.CheckLineBytes([]byte(mu.Original))
		if perr != nil {
			t.Fatal(perr)
		}
		if l.Time.Equal(orig.Time) {
			t.Error("skew did not move the timestamp")
		}
	})
	t.Run("accounting", func(t *testing.T) {
		in := accountingInput(20)
		out, m := Apply(in, Config{Seed: 4, Ops: []Op{OpSkew}, MaxPerOp: 1})
		mu := m.Mutations[0]
		skewed := lines(out)[mu.Line-1]
		if _, _, perr := wlm.CheckLineBytes([]byte(skewed), time.UTC); perr != nil {
			t.Fatalf("skewed accounting line no longer parses: %v", perr)
		}
		if _, _, perr := wlm.CheckLineBytes([]byte(mu.Original), time.UTC); perr != nil {
			t.Fatal(perr)
		}
		stamp := func(line string) string { s, _, _ := strings.Cut(line, ";"); return s }
		if stamp(skewed) == stamp(mu.Original) {
			t.Error("skew did not move the timestamp")
		}
	})
}

func TestFieldDropRemovesOneField(t *testing.T) {
	in := accountingInput(20)
	out, m := Apply(in, Config{Seed: 6, Ops: []Op{OpFieldDrop}, MaxPerOp: 1})
	mu := m.Mutations[0]
	dropped := lines(out)[mu.Line-1]
	if _, _, perr := wlm.CheckLineBytes([]byte(dropped), time.UTC); perr != nil {
		t.Fatalf("field-dropped accounting line no longer parses: %v", perr)
	}
	// The mutated line keeps every k=v token of the original but one, in
	// order.
	tokens := func(line string) []string { return strings.Fields(strings.SplitN(line, ";", 4)[3]) }
	orig, got := tokens(mu.Original), tokens(dropped)
	for i := range orig {
		if slices.Equal(got, slices.Delete(slices.Clone(orig), i, i+1)) {
			return
		}
	}
	t.Errorf("mutated fields %q are not %q less one", got, orig)
}

func TestBudgetBoundsMutationCount(t *testing.T) {
	in := syslogInput(1000)
	_, m := Apply(in, Config{Seed: 9, Budget: 0.002, Ops: []Op{OpTruncate, OpEncoding}})
	// round(0.002*1000) = 2 per operator.
	byOp := countByOp(m)
	if byOp["truncate"] != 2 || byOp["encoding"] != 2 {
		t.Errorf("per-op counts = %v, want 2 each", byOp)
	}
	_, m = Apply(in, Config{Seed: 9, Budget: 0.5, MaxPerOp: 3, Ops: []Op{OpTruncate}})
	if got := len(m.Mutations); got != 3 {
		t.Errorf("MaxPerOp ignored: %d mutations, want 3", got)
	}
	// round(0.01*1000) = 10 oversize victims, capped at MaxOversize.
	_, m = Apply(in, Config{Seed: 9, Ops: []Op{OpOversize}})
	if got := len(m.Mutations); got != MaxOversize {
		t.Errorf("oversize at the default budget: %d mutations, want MaxOversize = %d", got, MaxOversize)
	}
}

func TestApplyEmptyAndTinyInputs(t *testing.T) {
	if out, m := Apply(nil, Config{Seed: 1}); len(out) != 0 || len(m.Mutations) != 0 {
		t.Errorf("empty input mutated: %d bytes, %d mutations", len(out), len(m.Mutations))
	}
	out, m := Apply([]byte("x\n"), Config{Seed: 1})
	if m.OutputLines != len(lines(out)) {
		t.Errorf("tiny input: OutputLines %d vs %d actual", m.OutputLines, len(lines(out)))
	}
}

func TestManifestRoundTrip(t *testing.T) {
	in := syslogInput(100)
	_, m := Apply(in, Config{Seed: 8, Budget: 0.05, MaxPerOp: 2})
	if len(m.Mutations) == 0 {
		t.Fatal("no mutations to round-trip")
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got := new(Manifest)
	if err := json.NewDecoder(&buf).Decode(got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("manifest round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

// countByOp tallies a manifest's mutations per operator name.
func countByOp(m *Manifest) map[string]int {
	out := make(map[string]int)
	for _, mu := range m.Mutations {
		out[mu.Op]++
	}
	return out
}

func TestCorruptingAndLinesAffected(t *testing.T) {
	in := syslogInput(200)
	_, m := Apply(in, Config{Seed: 10, Budget: 0.02, MaxPerOp: 2})
	corrupting := m.Corrupting()
	var want int
	for _, mu := range m.Mutations {
		if mu.Corrupting {
			want++
		}
	}
	if len(corrupting) != want {
		t.Errorf("Corrupting() returned %d, want %d", len(corrupting), want)
	}
	if m.LinesAffected() < len(m.Mutations) {
		t.Errorf("LinesAffected %d < mutation count %d", m.LinesAffected(), len(m.Mutations))
	}
}

func TestOpFromString(t *testing.T) {
	for _, o := range AllOps() {
		if o.String() == "unknown" {
			t.Errorf("op %d has no name", int(o))
		}
		got, ok := OpFromString(o.String())
		if !ok || got != o {
			t.Errorf("OpFromString(%q) = %v, %v", o.String(), got, ok)
		}
	}
	if _, ok := OpFromString("nope"); ok {
		t.Error("OpFromString accepted unknown name")
	}
}

// TestEveryOpApplies: applyOne's switch keeps a safe default, so an operator
// it forgets would silently mutate nothing. Each operator alone must record
// at least one mutation of its own on input every operator accepts.
func TestEveryOpApplies(t *testing.T) {
	in := accountingInput(20)
	for _, o := range AllOps() {
		_, m := Apply(in, Config{Seed: 1, Ops: []Op{o}, MaxPerOp: 1})
		if n := countByOp(m)[o.String()]; n < 1 {
			t.Errorf("Apply with only %v recorded %d %v mutations, want >= 1", o, n, o)
		}
	}
}
