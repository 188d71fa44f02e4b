package mutate

import (
	"encoding/json"
	"io"
)

// Mutation is one recorded corruption. Line numbers refer to the FINAL
// (mutated) archive, so a reconciler can address the affected lines
// directly; Apply resolves them after all operators have run.
type Mutation struct {
	// Op is the operator name (Op.String vocabulary).
	Op string `json:"op"`
	// Line is the 1-based line number in the mutated archive: the rewritten
	// line for corrupting mutations, the first affected line for structural
	// ones (the first inserted copy for duplicate, the first line of the
	// swapped region for reorder).
	Line int `json:"line"`
	// Lines is the number of affected lines (1 for corrupting mutations;
	// the inserted-copy count for duplicate; both blocks for reorder).
	Lines int `json:"lines"`
	// Corrupting reports whether the mutation rewrote line text. Structural
	// mutations (duplicate, reorder) move or copy well-formed lines instead.
	Corrupting bool `json:"corrupting"`
	// Original and Text are the pre- and post-mutation line text, truncated
	// to parse.SampleTextBytes (corrupting mutations only); TextLen is the
	// full post-mutation length, so oversize mutations are recognizable
	// without storing megabytes of padding.
	Original string `json:"original,omitempty"`
	Text     string `json:"text,omitempty"`
	TextLen  int    `json:"text_len,omitempty"`
}

// Manifest records everything one Apply run did, in final line order.
type Manifest struct {
	Seed        int64      `json:"seed"`
	Budget      float64    `json:"budget"`
	InputLines  int        `json:"input_lines"`
	OutputLines int        `json:"output_lines"`
	Mutations   []Mutation `json:"mutations"`
}

// LinesAffected sums the affected-line counts over all mutations.
func (m *Manifest) LinesAffected() int {
	n := 0
	for _, mu := range m.Mutations {
		n += mu.Lines
	}
	return n
}

// Corrupting returns the mutations that rewrote line text, in line order.
func (m *Manifest) Corrupting() []Mutation {
	var out []Mutation
	for _, mu := range m.Mutations {
		if mu.Corrupting {
			out = append(out, mu)
		}
	}
	return out
}

// WriteJSON serializes the manifest as indented JSON.
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
