package taxonomy

import "sync"

// matcher is the compiled form of a rule list's filters: one Aho–Corasick
// automaton over every literal of every branch of every rule, determinized
// into a dense state × byte-class table. A scan feeds the message through
// it once; whenever literals end, the branch slots they fill ("uses")
// advance, and a branch that fills marks its rule as hit. Ordered chains
// are confirmed for order as the literals arrive, so nothing is searched
// twice and no folded copy of the message exists. Every table is sized
// from the rule set at construction.
type matcher struct {
	// class maps a byte to its table column. Bytes in no literal share
	// column 0, which leads every state back to the root; 'A'..'Z' share
	// the columns of 'a'..'z', which is the ASCII half of case folding.
	class  [256]uint8
	stride uint32   // columns per state
	next   []uint32 // next[s+class[c]]; a state is stored as its row offset
	// States at or past firstOut end at least one literal. Out-state number
	// o = (s-firstOut)/stride owns uses[outStart[o]:outStart[o+1]], its own
	// literals' uses and those of every literal that is a suffix of them.
	firstOut uint32
	outStart []uint32
	uses     []use
	branches []branch
	// Bit r of ordered is set when rule r's filter is exact, of unfiltered
	// when rule r has no filter and its regexp runs on every message.
	ordered, unfiltered []uint64
}

// use is one slot a literal fills: literal number k of a branch.
type use struct {
	branch, k uint32
	n         int32 // literal length
	ordered   bool  // the branch is an ordered chain
}

// branch is one chain or required-literal set of one rule. It passes when
// its progress reaches need: the chain length for an ordered branch, the
// full bitmask of its literals for an unordered one.
type branch struct{ rule, need uint32 }

// newMatcher compiles filters, indexed by rule; a nil filter marks a rule
// that cannot be prefiltered.
func newMatcher(filters []*prefilter) *matcher {
	words := (len(filters) + 63) / 64
	m := &matcher{ordered: make([]uint64, words), unfiltered: make([]uint64, words)}
	usesOf := make(map[string][]use)
	var lits []string // distinct, in first-use order
	for r, f := range filters {
		if f == nil {
			m.unfiltered[r>>6] |= 1 << (r & 63)
			continue
		}
		if f.ordered {
			m.ordered[r>>6] |= 1 << (r & 63)
		}
		for _, br := range f.branches {
			b := branch{rule: uint32(r), need: uint32(len(br))}
			if !f.ordered {
				b.need = 1<<len(br) - 1
			}
			for k, l := range br {
				if usesOf[l] == nil {
					lits = append(lits, l)
				}
				usesOf[l] = append(usesOf[l], use{uint32(len(m.branches)), uint32(k), int32(len(l)), f.ordered})
			}
			m.branches = append(m.branches, b)
		}
	}

	// One column per distinct literal byte (extracted literals are ASCII,
	// so at most 128), then the trie, one zeroed row per state. out[s]
	// collects the uses of the literals ending at s.
	m.stride = 1
	for _, l := range lits {
		for i := 0; i < len(l); i++ {
			if m.class[l[i]] == 0 {
				m.class[l[i]] = uint8(m.stride)
				m.stride++
			}
		}
	}
	m.next = make([]uint32, m.stride)
	out := [][]use{nil}
	for _, l := range lits {
		s := uint32(0)
		for i := 0; i < len(l); i++ {
			e := s*m.stride + uint32(m.class[l[i]])
			if m.next[e] == 0 {
				m.next[e] = uint32(len(out))
				out = append(out, nil)
				m.next = append(m.next, make([]uint32, m.stride)...)
			}
			s = m.next[e]
		}
		out[s] = append(out[s], usesOf[l]...)
	}
	// Extracted literals are lowercase and the text is matched folded, so
	// 'A'..'Z' read as 'a'..'z'.
	for c := 'A'; c <= 'Z'; c++ {
		m.class[c] = m.class[c+'a'-'A']
	}

	// Breadth-first: a state's failure target is shallower, so its row is
	// already complete when the state's missing edges are copied from it
	// and its out list inherited.
	fail := make([]uint32, len(out))
	queue := []uint32{0}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		for c := uint32(0); c < m.stride; c++ {
			t, via := m.next[s*m.stride+c], m.next[fail[s]*m.stride+c]
			if t == 0 {
				m.next[s*m.stride+c] = via
				continue
			}
			if s != 0 {
				fail[t] = via
				out[t] = append(out[t], out[via]...)
			}
			queue = append(queue, t)
		}
	}

	// Renumber so the states that end a literal come last — the scan tells
	// them apart with one compare — and store states as row offsets.
	perm := make([]uint32, len(out))
	var n uint32
	for _, wantOut := range [2]bool{false, true} {
		for s := range out {
			if (len(out[s]) > 0) == wantOut {
				perm[s] = n * m.stride
				n++
			}
		}
		if !wantOut {
			m.firstOut = n * m.stride
		}
	}
	next := make([]uint32, len(m.next))
	m.outStart = []uint32{0}
	for s := range out {
		for c := uint32(0); c < m.stride; c++ {
			next[perm[s]+c] = perm[m.next[uint32(s)*m.stride+c]]
		}
		if len(out[s]) > 0 {
			m.uses = append(m.uses, out[s]...)
			m.outStart = append(m.outStart, uint32(len(m.uses)))
		}
	}
	m.next = next
	return m
}

// scratch is the per-scan state, pooled so the hot path stays zero-alloc.
// It is all-zero whenever it sits in the pool.
type scratch struct {
	prog    []progress // per branch
	touched []uint32   // branches with prog.n != 0: what release has to undo
	hit     []uint64   // bit r: a branch of rule r passed
}

// progress is how far a branch has come in this scan: n counts the literals
// matched so far (ordered) or is the bitmask of literals seen (unordered);
// end is the folded offset where an ordered branch's last matched literal
// ended, meaningful only while n > 0.
type progress struct {
	n   uint32
	end int32
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// acquire takes a scratch from the pool, growing it to m's size the first
// time it meets a matcher this large.
func (m *matcher) acquire() *scratch {
	sc := scratchPool.Get().(*scratch)
	if len(sc.prog) < len(m.branches) {
		sc.prog = make([]progress, len(m.branches))
		sc.touched = make([]uint32, 0, len(m.branches))
	}
	if len(sc.hit) < len(m.ordered) {
		sc.hit = make([]uint64, len(m.ordered))
	}
	return sc
}

// release zeroes what the scan wrote and returns the scratch to the pool.
func (sc *scratch) release() {
	for _, b := range sc.touched {
		sc.prog[b].n = 0
	}
	sc.touched = sc.touched[:0]
	clear(sc.hit)
	scratchPool.Put(sc)
}

// scan runs msg through the automaton and returns a scratch whose hit set
// holds the rules with a passing branch; the caller releases it. Matching is against the folded text: besides the ASCII
// fold in the class map, the two non-ASCII runes that (?i) folds onto ASCII
// — U+212A KELVIN SIGN with 'k', U+017F LONG S with 's' — are read as those
// letters, so a filter cannot miss a message the regexp would match.
func (m *matcher) scan(msg []byte) *scratch {
	sc := m.acquire()
	next, class, firstOut, s := m.next, &m.class, m.firstOut, uint32(0)
	folded := 0 // bytes the folded text is shorter by so far
	for i := 0; i < len(msg); i++ {
		c := msg[i]
		if c >= 0x80 {
			switch {
			case c == 0xe2 && i+2 < len(msg) && msg[i+1] == 0x84 && msg[i+2] == 0xaa:
				c, i, folded = 'k', i+2, folded+2
			case c == 0xc5 && i+1 < len(msg) && msg[i+1] == 0xbf:
				c, i, folded = 's', i+1, folded+1
			}
		}
		s = next[s+uint32(class[c])]
		if s >= firstOut {
			m.advance(s, int32(i+1-folded), sc)
		}
	}
	return sc
}

// advance applies the literals ending in state s, at folded offset end, to
// the branches that use them. An ordered branch takes literal k only as its
// next one and only if it starts at or after the previous literal's end;
// literals arrive in order of their end, so the first one taken is the
// leftmost, which is what makes the greedy match exact.
func (m *matcher) advance(s uint32, end int32, sc *scratch) {
	o := (s - m.firstOut) / m.stride
	for _, u := range m.uses[m.outStart[o]:m.outStart[o+1]] {
		p := &sc.prog[u.branch]
		was, now := p.n, p.n+1
		if u.ordered {
			if was != u.k || (was > 0 && end-u.n < p.end) {
				continue
			}
			p.end = end
		} else if now = was | 1<<u.k; now == was {
			continue
		}
		if was == 0 {
			sc.touched = append(sc.touched, u.branch)
		}
		p.n = now
		if b := m.branches[u.branch]; now == b.need {
			sc.hit[b.rule>>6] |= 1 << (b.rule & 63)
		}
	}
}
