package wlm

import "fmt"

// RestoreAssembler rebuilds an assembler from a persisted job table, copied
// in one allocation; any order restores. An empty or repeated job ID means
// the state is corrupt (the live assembler keys its table by ID and cannot
// produce either) and is rejected.
func RestoreAssembler(jobs []Job) (*Assembler, error) {
	a := &Assembler{
		jobs:  append([]Job(nil), jobs...),
		index: make(map[string]int, len(jobs)),
	}
	for i := range a.jobs {
		id := a.jobs[i].ID
		if id == "" {
			return nil, fmt.Errorf("wlm: restore: job with empty id")
		}
		if _, dup := a.index[id]; dup {
			return nil, fmt.Errorf("wlm: restore: duplicate job id %q", id)
		}
		a.index[id] = i
	}
	return a, nil
}
