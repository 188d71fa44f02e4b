package store

// Durable-state plumbing for warm restarts. The serializable types here are
// plain data (internal/persist gob-encodes them); the semantic rule is the
// same as in internal/core: state files carry positions and accumulated
// results, never configuration. Paths, topology and parse options come from
// the restoring process and are fingerprinted by the persistence layer.

import (
	"fmt"

	"logdiver/internal/core"
)

// TailFileState is the persisted tail position of one archive.
type TailFileState struct {
	// Offset is the byte position already consumed, including Carry.
	Offset int64
	// Carry is the held-back trailing partial line.
	Carry []byte
	// Inode identifies the file the offset belongs to; InodeOK is false
	// when the platform offers no stable file identity or the file had not
	// appeared yet. A restored inode lets the tailer detect rotation that
	// happened while the process was down, even to a larger file.
	Inode   uint64
	InodeOK bool
}

// TailerState is the persisted position of all three archives, in the fixed
// order accounting, apsys, syslog. Paths are deliberately absent: the
// restoring daemon supplies its own -data-dir, and offsets apply wherever
// the archives live now.
type TailerState struct {
	Files [3]TailFileState
}

// State exports the tailer's positions for persistence.
func (t *Tailer) State() TailerState {
	var st TailerState
	for i := range t.files {
		f := &t.files[i]
		st.Files[i] = TailFileState{
			Offset:  f.offset,
			Carry:   append([]byte(nil), f.carry...),
			Inode:   f.inode,
			InodeOK: f.inodeOK,
		}
	}
	return st
}

// RestoreState seeds the tailer with persisted positions so the next Poll
// resumes where the previous process stopped. Rotation while the process
// was down is handled by the normal read path: a shrunken file or a changed
// inode restarts that archive from the top.
func (t *Tailer) RestoreState(st TailerState) error {
	for i := range st.Files {
		if st.Files[i].Offset < 0 {
			return fmt.Errorf("store: restore: negative tail offset %d for archive %d", st.Files[i].Offset, i)
		}
	}
	for i := range t.files {
		f := &t.files[i]
		f.offset = st.Files[i].Offset
		f.carry = append([]byte(nil), st.Files[i].Carry...)
		f.inode = st.Files[i].Inode
		f.inodeOK = st.Files[i].InodeOK
	}
	return nil
}

// SyncerState is the full resume state of an ingestion sequence: the
// pipeline, the tail positions it has consumed up to, and the cumulative
// ingestion counters. The three are persisted together because they are
// only consistent together — offsets ahead of the pipeline would skip
// lines, offsets behind it would double-ingest.
type SyncerState struct {
	Pipeline *core.IncrementalState
	Tailer   TailerState
	Ingest   IngestStats
}

// ExportState captures the syncer for persistence. It must be called from
// the ingestion goroutine (between Sync rounds); a poisoned or drained
// pipeline returns its error.
func (s *Syncer) ExportState() (*SyncerState, error) {
	if s.inc == nil {
		return nil, errDrained
	}
	pst, err := s.inc.State()
	if err != nil {
		return nil, err
	}
	return &SyncerState{
		Pipeline: pst,
		Tailer:   s.tail.State(),
		Ingest:   s.ing,
	}, nil
}
