package alps

import (
	"fmt"
	"slices"
	"sort"
)

// AssemblerState is the serializable snapshot of an Assembler: everything
// needed to resume pairing Starting/Finishing records exactly where a
// previous process stopped. The lenient flag is deliberately absent — it is
// configuration, not data, and the restoring caller re-applies it via
// SetLenient so a state file cannot silently switch parse policies.
type AssemblerState struct {
	// Open are the runs with a Starting record but no Finishing record yet,
	// sorted by ApID for deterministic serialization. End is zero.
	Open []AppRun
	// Done are the completed runs in completion (archive) order. Order is
	// load-bearing: incremental ingestion identifies newly completed runs as
	// Done()[n:], so a restored assembler must append after the same prefix.
	Done []AppRun
	// Unmatched, Duplicates and Clamped carry the anomaly counters.
	Unmatched  int
	Duplicates int
	Clamped    int
}

// State exports the assembler for persistence. The returned state shares no
// mutable memory with the assembler: Done shares the completed runs, which
// are never written after they complete, and Open is a fresh container.
func (a *Assembler) State() AssemblerState {
	st := AssemblerState{
		Open:       make([]AppRun, 0, len(a.open)),
		Done:       slices.Clip(a.done),
		Unmatched:  a.unmatched,
		Duplicates: a.duplicates,
		Clamped:    a.clamped,
	}
	for _, r := range a.open {
		st.Open = append(st.Open, r)
	}
	sort.Slice(st.Open, func(i, j int) bool { return st.Open[i].ApID < st.Open[j].ApID })
	return st
}

// RestoreAssembler rebuilds an assembler from a persisted state, taking over
// st.Done. The caller re-applies the duplicate policy with SetLenient. A
// state carrying the same apid twice in Open is corrupt and rejected.
func RestoreAssembler(st AssemblerState) (*Assembler, error) {
	a := &Assembler{
		open:       make(map[uint64]AppRun, len(st.Open)),
		done:       slices.Clip(st.Done), // an append never writes the caller's array
		unmatched:  st.Unmatched,
		duplicates: st.Duplicates,
		clamped:    st.Clamped,
		interned:   make(map[string]string),
	}
	for _, r := range st.Open {
		if _, dup := a.open[r.ApID]; dup {
			return nil, fmt.Errorf("alps: restore: apid %d open twice", r.ApID)
		}
		a.open[r.ApID] = r
	}
	return a, nil
}
