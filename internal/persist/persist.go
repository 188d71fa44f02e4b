// Package persist gives the daemon durable state: a versioned, checksummed,
// crash-safe on-disk representation of everything the online subsystem needs
// to warm-start — the incremental pipeline's resume state, the tailer's
// offsets and partial-line carry, the ingest counters, and the last
// published epoch. It is the state-persistence resilience pattern from the
// source study applied to the analyzer itself: a daemon restart costs a
// state-file read instead of a full re-ingest of the archive history.
//
// # File format
//
// A state file is a fixed binary header followed by a gob-encoded payload:
//
//	offset  size  field
//	0       8     magic "LDVSTATE"
//	8       4     format version, big-endian uint32
//	12      8     payload length, big-endian uint64
//	20      32    SHA-256 of the payload
//	52      ...   payload: gob(State)
//
// The checksum covers the payload only; the header fields are validated
// structurally. Any header or checksum violation is reported as a
// *FormatError, a version mismatch as a *VersionError — distinct types so
// callers can choose policy (the daemon rebuilds cold in lenient mode and
// refuses to start in strict mode, with the error naming the file and the
// reason either way).
//
// # Write protocol
//
// Save never exposes a torn file: it writes a temporary file in the target
// directory, fsyncs it, atomically renames it over the target, and fsyncs
// the directory. A crash at any point leaves either the complete old state
// or the complete new state. Readers (Load, `logdiver state`) detect every
// other corruption — truncation, bit rot, version skew — via the header.
//
// # What is and is not persisted
//
// State carries data, never policy: positions, accumulated records,
// counters, and the epoch. Configuration — machine model, parse mode,
// classifier rules, timezone — stays with the process, and a Fingerprint of
// it is stored alongside the state so a restart under different
// configuration is detected (Fingerprint.Diff) instead of silently blending
// two analyses.
package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"logdiver/internal/store"
)

// Version is the current state-file format version. Any change to the
// payload schema that gob cannot bridge bumps it; Load rejects other
// versions with a *VersionError rather than guessing. Version 2 holds
// placements as node ranges and each run once (version 1 held expanded node
// lists, and every attributed run a second time).
const Version uint32 = 2

// StateFile is the conventional file name inside a daemon's -state-dir.
const StateFile = "state.ldv"

const (
	magic      = "LDVSTATE"
	headerSize = len(magic) + 4 + 8 + sha256.Size
	// maxPayload caps how much Load will allocate on the word of a header.
	// A daemon state for a 27k-node machine over years of logs is tens of
	// megabytes; a corrupted length field should not OOM the process.
	maxPayload = 1 << 32
)

// State is everything a warm start needs, as written to and read from disk.
type State struct {
	// SavedAt is the wall time of the Save call.
	SavedAt time.Time
	// Epoch is the last snapshot epoch published before saving. The
	// restarted store continues the sequence from here.
	Epoch uint64
	// FleetEpoch is the merged-view epoch of the fleet manager that owned
	// this shard when it saved; a restarted manager never seeds its fleet
	// epoch below it. Zero in files written before the field existed (gob
	// tolerates the absence).
	FleetEpoch uint64
	// Fingerprint identifies the configuration the state was built under.
	Fingerprint Fingerprint
	// Syncer is the full ingestion resume state.
	Syncer *store.SyncerState
}

// FormatError reports a structurally invalid state file: bad magic,
// truncated header or payload, trailing garbage, checksum mismatch, or an
// undecodable payload. It always names the file and the violated property.
type FormatError struct {
	Path   string
	Reason string
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("persist: %s: %s", e.Path, e.Reason)
}

// VersionError reports a state file written by an incompatible format
// version.
type VersionError struct {
	Path      string
	Got, Want uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("persist: %s: state format version %d, this binary reads version %d", e.Path, e.Got, e.Want)
}

// Save writes st to path with the crash-safe protocol described in the
// package comment. The parent directory must exist.
func Save(path string, st *State) (err error) {
	if st == nil {
		return fmt.Errorf("persist: nil state")
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(st); err != nil {
		return fmt.Errorf("persist: encode state: %w", err)
	}
	sum := sha256.Sum256(payload.Bytes())

	hdr := make([]byte, 0, headerSize)
	hdr = append(hdr, magic...)
	hdr = binary.BigEndian.AppendUint32(hdr, Version)
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(payload.Len()))
	hdr = append(hdr, sum[:]...)

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ldv-state-*")
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(hdr); err != nil {
		return fmt.Errorf("persist: %s: %w", tmp.Name(), err)
	}
	if _, err = tmp.Write(payload.Bytes()); err != nil {
		return fmt.Errorf("persist: %s: %w", tmp.Name(), err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("persist: %s: %w", tmp.Name(), err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("persist: %s: %w", tmp.Name(), err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("persist: %w", err)
	}
	// Fsync the directory so the rename itself survives a power loss.
	if d, derr := os.Open(dir); derr == nil {
		derr = d.Sync()
		if cerr := d.Close(); derr == nil {
			derr = cerr
		}
		if derr != nil {
			return fmt.Errorf("persist: sync %s: %w", dir, derr)
		}
	}
	return nil
}

// Load reads and validates a state file. Errors are typed: a missing file
// satisfies errors.Is(err, fs.ErrNotExist), structural corruption is a
// *FormatError, format skew a *VersionError. A nil error guarantees the
// payload round-tripped the checksum.
func Load(path string) (*State, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b) < headerSize {
		return nil, &FormatError{path, fmt.Sprintf("truncated header: %d bytes, need %d", len(b), headerSize)}
	}
	if string(b[:len(magic)]) != magic {
		return nil, &FormatError{path, "bad magic: not a logdiver state file"}
	}
	off := len(magic)
	ver := binary.BigEndian.Uint32(b[off:])
	if ver != Version {
		return nil, &VersionError{Path: path, Got: ver, Want: Version}
	}
	off += 4
	plen := binary.BigEndian.Uint64(b[off:])
	if plen > maxPayload {
		return nil, &FormatError{path, fmt.Sprintf("payload length %d exceeds limit", plen)}
	}
	off += 8
	var want [sha256.Size]byte
	copy(want[:], b[off:])
	off += sha256.Size

	payload := b[off:]
	if uint64(len(payload)) < plen {
		return nil, &FormatError{path, fmt.Sprintf("truncated payload: %d bytes, header says %d", len(payload), plen)}
	}
	if uint64(len(payload)) > plen {
		return nil, &FormatError{path, fmt.Sprintf("trailing garbage: %d bytes past declared payload", uint64(len(payload))-plen)}
	}
	if sha256.Sum256(payload) != want {
		return nil, &FormatError{path, "payload checksum mismatch"}
	}
	var st State
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&st); err != nil {
		return nil, &FormatError{path, fmt.Sprintf("undecodable payload: %v", err)}
	}
	if st.Syncer == nil || st.Syncer.Pipeline == nil {
		return nil, &FormatError{path, "payload decodes but carries no syncer state"}
	}
	return &st, nil
}
