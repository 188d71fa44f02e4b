// Package mutate is a deterministic log-corruption engine for robustness
// testing: it applies composable, seeded corruption operators to a
// line-structured archive and records every mutation in a Manifest, so a
// test can reconcile exactly what the ingestion pipeline reported against
// what was injected. The operators model the corruption classes real HPC
// log archives exhibit — torn writes from interleaved writers, truncated
// lines at rotation boundaries, duplicated and reordered writer buffers,
// clock skew, binary garbage, dropped fields and runaway lines.
//
// Determinism is the point: the same input, Config and Seed produce the
// same output and Manifest, byte for byte, so robustness failures
// reproduce. Every mutation claims fresh victim lines (no line is mutated
// twice), which keeps reconciliation exact: each corrupting mutation maps
// to one final line whose acceptance is re-checked with the real parsers.
package mutate

import (
	"math/rand"
	"sort"
	"strings"
	"time"

	"logdiver/internal/parse"
)

// Op identifies one corruption operator.
type Op int

// The corruption operators, in canonical application order. Structural
// operators (OpDuplicate, OpReorder, OpInterleave) change the line count;
// the rest rewrite single lines in place.
const (
	// OpDuplicate re-inserts a copy of a block of lines right after the
	// original, as a flushed-twice writer buffer would.
	OpDuplicate Op = iota
	// OpReorder swaps two adjacent blocks of lines, as racing writer
	// buffers would.
	OpReorder
	// OpInterleave splices one line whole into the middle of the previous
	// line — a torn write from two unsynchronized writers.
	OpInterleave
	// OpTruncate cuts a line at a random interior byte, as a crash mid-write
	// or a rotation boundary would.
	OpTruncate
	// OpSkew shifts a line's timestamp by a random offset within SkewMax,
	// possibly moving it backwards (clock regression). The line stays
	// parseable; the corruption is semantic.
	OpSkew
	// OpEncoding injects a NUL or an invalid UTF-8 byte.
	OpEncoding
	// OpFieldDrop deletes one key=value field from the line.
	OpFieldDrop
	// OpOversize pads the line beyond parse.MaxLineBytes.
	OpOversize
	numOps
)

// String names the operator as recorded in Manifest entries.
func (o Op) String() string {
	switch o {
	case OpDuplicate:
		return "duplicate"
	case OpReorder:
		return "reorder"
	case OpInterleave:
		return "interleave"
	case OpTruncate:
		return "truncate"
	case OpSkew:
		return "skew"
	case OpEncoding:
		return "encoding"
	case OpFieldDrop:
		return "fielddrop"
	case OpOversize:
		return "oversize"
	default:
		return "unknown"
	}
}

// AllOps returns every operator in canonical order.
func AllOps() []Op {
	ops := make([]Op, 0, int(numOps))
	for o := Op(0); o < numOps; o++ {
		ops = append(ops, o)
	}
	return ops
}

// OpFromString parses an operator name (the Op.String vocabulary).
func OpFromString(s string) (Op, bool) {
	for o := Op(0); o < numOps; o++ {
		if o.String() == s {
			return o, true
		}
	}
	return 0, false
}

// Config tunes the corruption engine. The zero value (plus a Seed) selects
// every operator at a 1% per-operator budget.
type Config struct {
	// Seed drives all randomness; equal seeds give equal mutations.
	Seed int64
	// Budget is the per-operator corruption budget as a fraction of the
	// input line count: each selected operator mutates
	// max(1, round(Budget*lines)) victims (fewer if the input runs out of
	// eligible lines). 0 selects DefaultBudget; values are clamped to 1.
	Budget float64
	// Ops selects the operators to apply; nil selects AllOps.
	Ops []Op
	// MaxPerOp caps the victims per operator regardless of budget
	// (0 = uncapped). OpOversize is capped at MaxOversize in any case.
	MaxPerOp int
	// BlockLines is the block length of the structural operators
	// (duplicate, reorder); 0 selects DefaultBlockLines.
	BlockLines int
	// SkewMax bounds the timestamp shift of OpSkew; 0 selects
	// DefaultSkewMax.
	SkewMax time.Duration
	// OversizePad is how far beyond parse.MaxLineBytes OpOversize pads;
	// 0 selects DefaultOversizePad.
	OversizePad int
}

// Config defaults.
const (
	DefaultBudget      = 0.01
	DefaultBlockLines  = 4
	DefaultSkewMax     = time.Hour
	DefaultOversizePad = 64
	// MaxOversize caps OpOversize's victims per Apply, whatever the
	// budget: each one grows the output by about parse.MaxLineBytes
	// (1 MiB), so at a 1% budget an uncapped 30-day archive would grow by
	// gigabytes.
	MaxOversize = 8
)

func (c Config) withDefaults() Config {
	if c.Budget <= 0 {
		c.Budget = DefaultBudget
	}
	if c.Budget > 1 {
		c.Budget = 1
	}
	if c.Ops == nil {
		c.Ops = AllOps()
	}
	if c.BlockLines <= 0 {
		c.BlockLines = DefaultBlockLines
	}
	if c.SkewMax <= 0 {
		c.SkewMax = DefaultSkewMax
	}
	if c.OversizePad <= 0 {
		c.OversizePad = DefaultOversizePad
	}
	return c
}

// cell is one line of the working document. Mutations claim cells so no
// line is affected twice; mut links a corrupting (text-rewriting) mutation
// to its cell for final line-number resolution.
type cell struct {
	text    string
	claimed bool
	mut     *Mutation
	anchor  *Mutation // structural mutation anchored at this cell
}

// engine is one Apply run.
type engine struct {
	cfg   Config
	rng   *rand.Rand
	cells []*cell
	muts  []*Mutation
}

// Apply corrupts input under cfg and returns the mutated archive together
// with the manifest of every mutation. Apply never fails: an input with too
// few eligible lines simply receives fewer mutations than the budget allows
// (down to none), and the manifest records what actually happened.
func Apply(input []byte, cfg Config) ([]byte, *Manifest) {
	cfg = cfg.withDefaults()
	text := string(input)
	trailingNL := strings.HasSuffix(text, "\n")
	if trailingNL {
		text = strings.TrimSuffix(text, "\n")
	}
	e := &engine{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	inputLines := 0
	if text != "" {
		raw := strings.Split(text, "\n")
		inputLines = len(raw)
		e.cells = make([]*cell, len(raw))
		for i, s := range raw {
			e.cells[i] = &cell{text: s}
		}
	}

	perOp := int(cfg.Budget*float64(inputLines) + 0.5)
	if perOp < 1 {
		perOp = 1
	}
	if cfg.MaxPerOp > 0 && perOp > cfg.MaxPerOp {
		perOp = cfg.MaxPerOp
	}

	// Canonical operator order (not the order given in cfg.Ops) keeps equal
	// configs equal regardless of slice order.
	enabled := make([]bool, numOps)
	for _, o := range cfg.Ops {
		if o >= 0 && o < numOps {
			enabled[o] = true
		}
	}
	for o := Op(0); o < numOps; o++ {
		if !enabled[o] {
			continue
		}
		n := perOp
		if o == OpOversize {
			n = min(n, MaxOversize)
		}
		for range n {
			if !e.applyOne(o) {
				break // no eligible victims left for this operator
			}
		}
	}

	m := &Manifest{
		Seed:        cfg.Seed,
		Budget:      cfg.Budget,
		InputLines:  inputLines,
		OutputLines: len(e.cells),
	}
	// Resolve final line numbers: cells know their mutations, the walk
	// assigns 1-based positions in the output archive.
	for i, c := range e.cells {
		if c.mut != nil {
			c.mut.Line = i + 1
		}
		if c.anchor != nil {
			c.anchor.Line = i + 1
		}
	}
	for _, mu := range e.muts {
		m.Mutations = append(m.Mutations, *mu)
	}
	sort.SliceStable(m.Mutations, func(i, j int) bool { return m.Mutations[i].Line < m.Mutations[j].Line })

	var b strings.Builder
	for i, c := range e.cells {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(c.text)
	}
	if trailingNL && len(e.cells) > 0 {
		b.WriteByte('\n')
	}
	return []byte(b.String()), m
}

// applyOne applies a single mutation of operator o to a freshly chosen
// victim, returning false when no eligible victim remains.
func (e *engine) applyOne(o Op) bool {
	switch o {
	case OpDuplicate:
		return e.duplicate()
	case OpReorder:
		return e.reorder()
	case OpInterleave:
		return e.interleave()
	case OpTruncate:
		return e.rewrite(o, func(s string) (string, bool) {
			if len(s) < 2 {
				return "", false
			}
			return s[:1+e.rng.Intn(len(s)-1)], true
		})
	case OpSkew:
		return e.rewrite(o, e.skewLine)
	case OpEncoding:
		return e.rewrite(o, func(s string) (string, bool) {
			if s == "" {
				return "", false
			}
			pos := e.rng.Intn(len(s))
			bad := "\x00"
			if e.rng.Intn(2) == 1 {
				bad = "\xff\xfe"
			}
			return s[:pos] + bad + s[pos:], true
		})
	case OpFieldDrop:
		return e.rewrite(o, e.dropField)
	case OpOversize:
		return e.rewrite(o, func(s string) (string, bool) {
			if s == "" {
				return "", false
			}
			pad := parse.MaxLineBytes - len(s) + e.cfg.OversizePad
			if pad <= 0 {
				return "", false // already oversized; nothing to do
			}
			return s + strings.Repeat("x", pad), true
		})
	default:
		return false
	}
}

// rewrite picks one unclaimed victim cell that fn accepts, replaces its
// text, and records the mutation. fn returning ok == false rejects the
// candidate (no-op mutations are never recorded).
func (e *engine) rewrite(o Op, fn func(string) (string, bool)) bool {
	for _, i := range e.rng.Perm(len(e.cells)) {
		c := e.cells[i]
		if c.claimed {
			continue
		}
		out, ok := fn(c.text)
		if !ok || out == c.text {
			continue
		}
		mu := &Mutation{
			Op:         o.String(),
			Lines:      1,
			Corrupting: true,
			Original:   parse.Truncate(c.text),
			Text:       parse.Truncate(out),
			TextLen:    len(out),
		}
		c.text = out
		c.claimed = true
		c.mut = mu
		e.muts = append(e.muts, mu)
		return true
	}
	return false
}

// span reports whether cells[i:i+n] exist and are all unclaimed.
func (e *engine) span(i, n int) bool {
	if i < 0 || i+n > len(e.cells) {
		return false
	}
	for _, c := range e.cells[i : i+n] {
		if c.claimed {
			return false
		}
	}
	return true
}

// duplicate copies a block of BlockLines unclaimed lines and re-inserts the
// copy right after the original. The copies are new, claimed cells; the
// manifest entry anchors at the first copy.
func (e *engine) duplicate() bool {
	n := e.cfg.BlockLines
	if n > len(e.cells) {
		n = len(e.cells)
	}
	if n == 0 {
		return false
	}
	for _, i := range e.rng.Perm(len(e.cells) - n + 1) {
		if !e.span(i, n) {
			continue
		}
		mu := &Mutation{Op: OpDuplicate.String(), Lines: n}
		dup := make([]*cell, n)
		for k, c := range e.cells[i : i+n] {
			c.claimed = true
			dup[k] = &cell{text: c.text, claimed: true}
		}
		dup[0].anchor = mu
		e.cells = append(e.cells[:i+n], append(dup, e.cells[i+n:]...)...)
		e.muts = append(e.muts, mu)
		return true
	}
	return false
}

// reorder swaps two adjacent blocks of BlockLines unclaimed lines. The
// manifest entry anchors at the first line of the swapped region and spans
// both blocks.
func (e *engine) reorder() bool {
	n := e.cfg.BlockLines
	if 2*n > len(e.cells) {
		n = len(e.cells) / 2
	}
	if n == 0 {
		return false
	}
	for _, i := range e.rng.Perm(len(e.cells) - 2*n + 1) {
		if !e.span(i, 2*n) {
			continue
		}
		mu := &Mutation{Op: OpReorder.String(), Lines: 2 * n}
		swapped := make([]*cell, 0, 2*n)
		swapped = append(swapped, e.cells[i+n:i+2*n]...)
		swapped = append(swapped, e.cells[i:i+n]...)
		for _, c := range swapped {
			c.claimed = true
		}
		copy(e.cells[i:i+2*n], swapped)
		swapped[0].anchor = mu
		e.muts = append(e.muts, mu)
		return true
	}
	return false
}

// interleave splices line i+1 whole into a random interior position of line
// i, producing a single torn line where two lines stood.
func (e *engine) interleave() bool {
	if len(e.cells) < 2 {
		return false
	}
	for _, i := range e.rng.Perm(len(e.cells) - 1) {
		a, b := e.cells[i], e.cells[i+1]
		if a.claimed || b.claimed || len(a.text) < 2 || b.text == "" {
			continue
		}
		k := 1 + e.rng.Intn(len(a.text)-1)
		out := a.text[:k] + b.text + a.text[k:]
		mu := &Mutation{
			Op:         OpInterleave.String(),
			Lines:      1,
			Corrupting: true,
			Original:   parse.Truncate(a.text),
			Text:       parse.Truncate(out),
			TextLen:    len(out),
		}
		a.text = out
		a.claimed = true
		a.mut = mu
		e.cells = append(e.cells[:i+1], e.cells[i+2:]...)
		e.muts = append(e.muts, mu)
		return true
	}
	return false
}

// Timestamp layouts the skew operator recognizes: the syslog wire format
// (RFC 3339 with microseconds) and the accounting stamp.
const (
	syslogLayout     = "2006-01-02T15:04:05.000000Z07:00"
	accountingLayout = "01/02/2006 15:04:05"
)

// skewLine shifts the line's leading timestamp by a uniform offset in
// [-SkewMax, +SkewMax] (never zero), preserving the layout. Lines that do
// not open with a recognized timestamp are rejected.
func (e *engine) skewLine(s string) (string, bool) {
	type layout struct {
		layout string
		sep    byte // byte terminating the timestamp field
	}
	//  Accounting stamps contain a space, so the field runs to the first ';';
	//  syslog stamps run to the first space.
	for _, l := range []layout{{syslogLayout, ' '}, {accountingLayout, ';'}} {
		idx := strings.IndexByte(s, l.sep)
		if idx <= 0 {
			continue
		}
		ts := s[:idx]
		t, err := time.Parse(l.layout, ts)
		if err != nil {
			continue
		}
		off := time.Duration(e.rng.Int63n(int64(2*e.cfg.SkewMax))) - e.cfg.SkewMax
		if off == 0 {
			off = time.Second
		}
		return t.Add(off).Format(l.layout) + s[idx:], true
	}
	return "", false
}

// dropField deletes one key=value token from the line. Lines without such a
// token are rejected.
func (e *engine) dropField(s string) (string, bool) {
	// Tokens are space-separated; a key=value token contains '=' with a
	// non-empty key. This matches both the accounting field list and the
	// apsys message body (whose ", "-separated fields also split on space).
	fields := strings.Split(s, " ")
	var candidates []int
	for i, f := range fields {
		if eq := strings.IndexByte(f, '='); eq > 0 {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return "", false
	}
	victim := candidates[e.rng.Intn(len(candidates))]
	out := append([]string(nil), fields[:victim]...)
	out = append(out, fields[victim+1:]...)
	return strings.Join(out, " "), true
}
