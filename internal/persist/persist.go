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
// A state file is a fixed binary header followed by a payload of records:
//
//	offset  size  field
//	0       8     magic "LDVSTATE"
//	8       4     format version, big-endian uint32
//	12      8     payload length, big-endian uint64
//	20      32    SHA-256 of the payload
//	52      ...   payload: records
//
// Each record is framed as a uvarint element count, a uvarint length and
// that many bytes of one gob stream. The first record (count 0), the types
// record, holds the gob type descriptors of every value that follows; each
// later record holds one gob value, so it decodes with the types record
// alone. The second record (count 0) holds everything but the bulk of the
// pipeline — epochs, fingerprint, tail positions, counters, the pipeline's
// small fields — and how many jobs, open runs, completed runs,
// attributions, carried events and pending events follow. Each of those
// six follows in that order as records of at most chunkRecords elements.
// Save streams the records through the hash into the file and writes the
// header last, so neither side ever holds the encoded payload whole.
//
// The checksum covers the payload only; the header fields are validated
// structurally. Load checks the length and the checksum over the whole
// payload before it decodes any record, then decodes the bulk records on
// several goroutines, each record in place into its slice. Any header,
// checksum or record violation is reported as a *FormatError, a version
// mismatch as a *VersionError — distinct types so callers can choose policy
// (the daemon rebuilds cold in lenient mode and refuses to start in strict
// mode, with the error naming the file and the reason either way).
//
// # Write protocol
//
// Save never exposes a torn file: it writes a temporary file in the target
// directory — header placeholder, records, then the header over the
// placeholder — fsyncs it, atomically renames it over the target, and fsyncs
// the directory. A crash at any point leaves either the complete old state
// or the complete new state. Readers (Load, `logdiver state`) detect every
// other corruption — truncation, bit rot, version skew — via the header.
//
// # What is and is not persisted
//
// State carries data, never policy: positions, accumulated records,
// counters, and the epoch. Configuration — machine model, parse mode,
// classifier rules — stays with the process, and a Fingerprint of it is
// stored alongside the state so a restart under different configuration is
// detected (Fingerprint.Diff) instead of silently blending two analyses.
package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"logdiver/internal/core"
	"logdiver/internal/store"
)

// Version is the current state-file format version. Any change to the
// payload schema that gob cannot bridge bumps it; Load rejects other
// versions with a *VersionError rather than guessing. Version 3 frames the
// payload as a types record, a header record and bounded chunk records,
// and keeps the event carry apart from the events no Result has folded yet
// (version 2 was one gob value; version 1 held expanded node lists).
const Version uint32 = 3

// StateFile is the conventional file name inside a daemon's -state-dir.
const StateFile = "state.ldv"

const (
	magic      = "LDVSTATE"
	headerSize = len(magic) + 4 + 8 + sha256.Size
	// chunkRecords caps the elements of one chunk record, so a save
	// buffers one record at a time and each decoding goroutine one more.
	chunkRecords = 2048
	// readBuffer sizes the reads of the checksum pass.
	readBuffer = 256 << 10
	// maxDecoders bounds the goroutines one Load decodes records on.
	maxDecoders = 4
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
// package comment. The parent directory must exist. It encodes st as it
// finds it, chunk by chunk, so st may share the live pipeline's carries as
// long as nothing appends to the pipeline before Save returns.
func Save(path string, st *State) (err error) {
	if st == nil || st.Syncer == nil || st.Syncer.Pipeline == nil {
		return fmt.Errorf("persist: nil state")
	}
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
	// The header goes in last, over this placeholder, once the payload's
	// length and hash are known.
	if _, err = tmp.Write(make([]byte, headerSize)); err != nil {
		return fmt.Errorf("persist: %s: %w", tmp.Name(), err)
	}
	hdr, err := writePayload(tmp, st)
	if err != nil {
		return fmt.Errorf("persist: %s: encode state: %w", tmp.Name(), err)
	}
	if _, err = tmp.WriteAt(hdr, 0); err != nil {
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
// *FormatError, format skew a *VersionError. It reads the file in bounded
// pieces: once to check the payload's length and checksum, then record by
// record to decode it, so a nil error guarantees the payload round-tripped
// the checksum and no record of a file that fails it is ever decoded.
// Records decode on up to maxDecoders goroutines at once.
func Load(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	if size < int64(headerSize) {
		return nil, &FormatError{path, fmt.Sprintf("truncated header: %d bytes, need %d", size, headerSize)}
	}
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return nil, fmt.Errorf("persist: %s: %w", path, err)
	}
	if string(hdr[:len(magic)]) != magic {
		return nil, &FormatError{path, "bad magic: not a logdiver state file"}
	}
	off := len(magic)
	ver := binary.BigEndian.Uint32(hdr[off:])
	if ver != Version {
		return nil, &VersionError{Path: path, Got: ver, Want: Version}
	}
	off += 4
	plen := binary.BigEndian.Uint64(hdr[off:])
	off += 8
	want := hdr[off:]

	switch have := uint64(size) - uint64(headerSize); {
	case have < plen:
		return nil, &FormatError{path, fmt.Sprintf("truncated payload: %d bytes, header says %d", have, plen)}
	case have > plen:
		return nil, &FormatError{path, fmt.Sprintf("trailing garbage: %d bytes past declared payload", have-plen)}
	}
	payload := io.NewSectionReader(f, int64(headerSize), int64(plen))
	h := sha256.New()
	if _, err := io.CopyBuffer(h, payload, make([]byte, readBuffer)); err != nil {
		return nil, fmt.Errorf("persist: %s: %w", path, err)
	}
	if !bytes.Equal(h.Sum(nil), want) {
		return nil, &FormatError{path, "payload checksum mismatch"}
	}
	st, err := decodeState(payload, int64(plen))
	if err != nil {
		var fe *FormatError
		if errors.As(err, &fe) {
			fe.Path = path
			return nil, fe
		}
		return nil, fmt.Errorf("persist: %s: %w", path, err)
	}
	return st, nil
}

// writePayload streams st's records to w through the hash and returns the
// file header that describes them.
func writePayload(w io.Writer, st *State) ([]byte, error) {
	h := sha256.New()
	n, err := encodeState(io.MultiWriter(h, w), st)
	if err != nil {
		return nil, err
	}
	return sealHeader(uint64(n), h), nil
}

// sealHeader returns the file header for a payload of plen bytes whose
// SHA-256 h has consumed.
func sealHeader(plen uint64, h hash.Hash) []byte {
	hdr := make([]byte, 0, headerSize)
	hdr = append(hdr, magic...)
	hdr = binary.BigEndian.AppendUint32(hdr, Version)
	hdr = binary.BigEndian.AppendUint64(hdr, plen)
	return h.Sum(hdr)
}

// stateHeader is a payload's first record: the State without the bulk of
// its pipeline, and how many elements of each bulk slice follow.
type stateHeader struct {
	SavedAt     time.Time
	Epoch       uint64
	FleetEpoch  uint64
	Fingerprint Fingerprint
	Tailer      store.TailerState
	Ingest      store.IngestStats
	// Pipeline has its six bulk slices nil.
	Pipeline core.IncrementalState
	Counts   bulkCounts
}

// bulkCounts holds the length of each bulk slice of a pipeline state, in
// the order their chunk records follow the header record.
type bulkCounts struct {
	Jobs, Open, Done, Attr, Events, Pending int
}

// encodeState writes st's records to w, one Write per record, and returns
// the bytes written.
func encodeState(w io.Writer, st *State) (int64, error) {
	sy := st.Syncer
	p := sy.Pipeline
	small := *p
	small.Jobs, small.Alps.Open, small.Alps.Done, small.Attr, small.Events, small.Pending = nil, nil, nil, nil, nil, nil
	rw := newRecordWriter(w)
	err := rw.put(0, &stateHeader{
		SavedAt:     st.SavedAt,
		Epoch:       st.Epoch,
		FleetEpoch:  st.FleetEpoch,
		Fingerprint: st.Fingerprint,
		Tailer:      sy.Tailer,
		Ingest:      sy.Ingest,
		Pipeline:    small,
		Counts: bulkCounts{
			Jobs: len(p.Jobs), Open: len(p.Alps.Open), Done: len(p.Alps.Done),
			Attr: len(p.Attr), Events: len(p.Events), Pending: len(p.Pending),
		},
	})
	if err == nil {
		err = putChunks(rw, p.Jobs)
	}
	if err == nil {
		err = putChunks(rw, p.Alps.Open)
	}
	if err == nil {
		err = putChunks(rw, p.Alps.Done)
	}
	if err == nil {
		err = putChunks(rw, p.Attr)
	}
	if err == nil {
		err = putChunks(rw, p.Events)
	}
	if err == nil {
		err = putChunks(rw, p.Pending)
	}
	return rw.n, err
}

// recordWriter frames the messages of one gob encoder onto w, one Write per
// record. gob describes every type once, with the first value that uses
// it; the first put writes those descriptions as the types record, and
// every record after it holds exactly one value message, so it decodes
// with the types record alone.
type recordWriter struct {
	w     io.Writer
	n     int64 // bytes written
	enc   *gob.Encoder
	msgs  messages
	out   []byte
	typed bool
}

func newRecordWriter(w io.Writer) *recordWriter {
	rw := &recordWriter{w: w}
	rw.enc = gob.NewEncoder(&rw.msgs)
	return rw
}

// put encodes v and writes it as one record of n elements.
func (rw *recordWriter) put(n int, v any) error {
	rw.msgs.buf, rw.msgs.ends = rw.msgs.buf[:0], rw.msgs.ends[:0]
	if err := rw.enc.Encode(v); err != nil {
		return err
	}
	start := 0
	if k := len(rw.msgs.ends); k > 1 {
		start = rw.msgs.ends[k-2]
	}
	if !rw.typed {
		if err := rw.frame(0, rw.msgs.buf[:start]); err != nil {
			return err
		}
		rw.typed = true
	} else if start > 0 {
		return fmt.Errorf("%T: type not described by the types record", v)
	}
	return rw.frame(n, rw.msgs.buf[start:])
}

// frame writes body as a record of n elements.
func (rw *recordWriter) frame(n int, body []byte) error {
	rw.out = binary.AppendUvarint(rw.out[:0], uint64(n))
	rw.out = binary.AppendUvarint(rw.out, uint64(len(body)))
	rw.out = append(rw.out, body...)
	n, err := rw.w.Write(rw.out)
	rw.n += int64(n)
	return err
}

// messages collects the gob messages of one Encode call.
type messages struct {
	buf  []byte
	ends []int
}

func (m *messages) Write(p []byte) (int, error) {
	m.buf = append(m.buf, p...)
	m.ends = append(m.ends, len(m.buf))
	return len(p), nil
}

// putChunks writes s as records of at most chunkRecords elements.
func putChunks[T any](rw *recordWriter, s []T) error {
	for len(s) > 0 {
		n := min(len(s), chunkRecords)
		if err := rw.put(n, s[:n]); err != nil {
			return err
		}
		s = s[n:]
	}
	return nil
}

// framePrefix is room for a record's two uvarints.
const framePrefix = 2 * binary.MaxVarintLen64

// frame locates one record's body in the payload.
type frame struct {
	off, size int64
	n         int
}

// scanFrames reads the framing of every record of the plen-byte payload r.
func scanFrames(r io.ReaderAt, plen int64) ([]frame, error) {
	var frames []frame
	var pre [framePrefix]byte
	for off := int64(0); off < plen; {
		k, err := r.ReadAt(pre[:min(int64(len(pre)), plen-off)], off)
		if err != nil && err != io.EOF {
			return nil, err
		}
		n, a := binary.Uvarint(pre[:k])
		size, b := uint64(0), 0
		if a > 0 {
			size, b = binary.Uvarint(pre[a:k])
		}
		if a <= 0 || b <= 0 {
			return nil, &FormatError{Reason: fmt.Sprintf("undecodable payload: bad record frame at payload offset %d", off)}
		}
		off += int64(a + b)
		if size > uint64(plen-off) || n > uint64(plen) {
			return nil, &FormatError{Reason: fmt.Sprintf("undecodable payload: record at payload offset %d overruns the payload", off)}
		}
		frames = append(frames, frame{off: off, size: int64(size), n: int(n)})
		off += int64(size)
	}
	return frames, nil
}

// recordReader decodes records with one gob decoder: the types record
// first, then each record's bytes in turn. gob reads a *bytes.Reader
// without reading ahead, so each record is consumed exactly.
type recordReader struct {
	r   bytes.Reader
	dec *gob.Decoder
}

// decode decodes the record b into v, with types, the types record, before
// it when the reader is new.
func (rr *recordReader) decode(types, b []byte, v any) error {
	if rr.dec == nil {
		rr.r.Reset(append(slices.Clip(types), b...))
		rr.dec = gob.NewDecoder(&rr.r)
	} else {
		rr.r.Reset(b)
	}
	if err := rr.dec.Decode(v); err != nil {
		return err
	}
	if rr.r.Len() != 0 {
		return fmt.Errorf("%d bytes past the record", rr.r.Len())
	}
	return nil
}

// section is one bulk slice of the pipeline state being filled from its
// records: at(off, k) returns the decoder of a k-element record landing at
// element off.
type section struct {
	name string
	n    int
	at   func(off, k int) func(rr *recordReader, types, b []byte) error
}

// sectionOf allocates *dst for n elements and returns its section. A
// record decodes in place into the slice: gob fills a destination whose
// capacity holds the record, and a record of another length is refused.
func sectionOf[T any](name string, dst *[]T, n int) section {
	if n > 0 {
		*dst = make([]T, n)
	}
	return section{name, n, func(off, k int) func(*recordReader, []byte, []byte) error {
		return func(rr *recordReader, types, b []byte) error {
			chunk := (*dst)[off : off : off+k]
			if err := rr.decode(types, b, &chunk); err != nil {
				return err
			}
			if len(chunk) != k {
				return fmt.Errorf("record holds %d elements, its frame says %d", len(chunk), k)
			}
			return nil
		}
	}}
}

// task is one bulk record to decode.
type task struct {
	frame
	name   string
	decode func(rr *recordReader, types, b []byte) error
}

// decodeState decodes the records encodeState wrote from the plen-byte
// payload r: the types and header records, then the bulk records, each in
// place into its slice, on up to maxDecoders goroutines. Every bulk element
// takes at least one payload byte, so a count past the payload's length is
// refused before it sizes an allocation.
func decodeState(r io.ReaderAt, plen int64) (*State, error) {
	bad := func(format string, args ...any) error {
		return &FormatError{Reason: "undecodable payload: " + fmt.Sprintf(format, args...)}
	}
	frames, err := scanFrames(r, plen)
	if err != nil {
		return nil, err
	}
	if len(frames) < 2 || frames[0].n != 0 || frames[1].n != 0 {
		return nil, bad("no types and header records")
	}
	types := make([]byte, frames[0].size)
	header := make([]byte, frames[1].size)
	if _, err := r.ReadAt(types, frames[0].off); err != nil {
		return nil, err
	}
	if _, err := r.ReadAt(header, frames[1].off); err != nil {
		return nil, err
	}
	var hd stateHeader
	if err := new(recordReader).decode(types, header, &hd); err != nil {
		return nil, bad("header record: %v", err)
	}
	p := hd.Pipeline
	c := hd.Counts
	for _, n := range []int{c.Jobs, c.Open, c.Done, c.Attr, c.Events, c.Pending} {
		if n < 0 || int64(n) > plen {
			return nil, bad("bulk count %d out of range", n)
		}
	}
	secs := []section{
		sectionOf("jobs", &p.Jobs, c.Jobs),
		sectionOf("open runs", &p.Alps.Open, c.Open),
		sectionOf("completed runs", &p.Alps.Done, c.Done),
		sectionOf("attributions", &p.Attr, c.Attr),
		sectionOf("events", &p.Events, c.Events),
		sectionOf("pending events", &p.Pending, c.Pending),
	}
	tasks := make([]task, 0, len(frames)-2)
	si, filled := 0, 0
	for _, fr := range frames[2:] {
		for si < len(secs) && filled == secs[si].n {
			si, filled = si+1, 0
		}
		if si == len(secs) {
			return nil, bad("record past the last bulk slice")
		}
		if sec := secs[si]; fr.n == 0 || fr.n > sec.n-filled {
			return nil, bad("%s: record of %d elements with %d of %d to go", sec.name, fr.n, sec.n-filled, sec.n)
		}
		tasks = append(tasks, task{fr, secs[si].name, secs[si].at(filled, fr.n)})
		filled += fr.n
	}
	for si < len(secs) && filled == secs[si].n {
		si, filled = si+1, 0
	}
	if si != len(secs) {
		return nil, bad("%s: %d of %d elements", secs[si].name, filled, secs[si].n)
	}

	errs := make([]error, len(tasks))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), maxDecoders, len(tasks)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rr recordReader
			var buf []byte
			for i := int(next.Add(1) - 1); i < len(tasks); i = int(next.Add(1) - 1) {
				t := &tasks[i]
				buf = slices.Grow(buf[:0], int(t.size))[:t.size]
				if _, err := r.ReadAt(buf, t.off); err != nil {
					errs[i] = err
					return
				}
				if err := t.decode(&rr, types, buf); err != nil {
					errs[i] = bad("%s: %v", t.name, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &State{
		SavedAt:     hd.SavedAt,
		Epoch:       hd.Epoch,
		FleetEpoch:  hd.FleetEpoch,
		Fingerprint: hd.Fingerprint,
		Syncer:      &store.SyncerState{Pipeline: &p, Tailer: hd.Tailer, Ingest: hd.Ingest},
	}, nil
}
