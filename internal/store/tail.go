package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"logdiver/internal/alps"
	"logdiver/internal/core"
	"logdiver/internal/syslogx"
	"logdiver/internal/wlm"
)

// Archive file names a Tailer expects inside its data directory: each
// format's own name, which is what gen.Dataset.WriteDir (and so `logdiver
// generate`) writes.
const (
	AccountingFile = wlm.ArchiveFile
	ApsysFile      = alps.ArchiveFile
	SyslogFile     = syslogx.ArchiveFile
)

// maxPollBytes bounds how much one Poll reads per archive, so a huge
// backlog is ingested in bounded-memory rounds instead of one giant slurp.
const maxPollBytes = 64 << 20

// drainPollBytes bounds the polls of Syncer.SyncAll. It builds one
// snapshot after all of them, so there is no per-round rebuild for a large
// read to amortize, and a small one keeps few bytes in memory at once.
const drainPollBytes = 16 << 20

// tailFile is the per-archive tail state.
type tailFile struct {
	path string
	// offset is the byte position already consumed (including carry).
	offset int64
	// carry holds a trailing partial line read but not yet released; it is
	// prepended to the next read so Deltas always end on line boundaries.
	carry []byte
	// inode identifies the file the offset belongs to (inodeOK false on
	// platforms without stable file IDs). It catches rotation to a file that
	// is not smaller than the old one — in particular rotation while the
	// process was down, where the size heuristic alone would silently resume
	// mid-way into unrelated content.
	inode   uint64
	inodeOK bool
}

// Tailer incrementally reads the three growing archives of a data
// directory. Files may be absent (treated as empty until they appear),
// grow, or be rotated (truncated/replaced by a smaller file), in which case
// reading restarts from the top of the new file. Partial trailing lines are
// held back until the writer completes them. Tailer is not safe for
// concurrent use.
type Tailer struct {
	files [3]tailFile
}

// NewTailer tails the conventional archive names under dir.
func NewTailer(dir string) *Tailer {
	return &Tailer{files: [3]tailFile{
		{path: filepath.Join(dir, AccountingFile)},
		{path: filepath.Join(dir, ApsysFile)},
		{path: filepath.Join(dir, SyslogFile)},
	}}
}

// Poll reads whatever every archive has grown since the previous Poll and
// returns it as a line-aligned Delta. A Delta with no bytes means nothing
// new arrived. Poll is all-or-nothing: when one archive fails to read, the
// offsets, carries and file identities of the archives already read are
// rolled back, so their bytes (and any rotation just detected) are
// delivered by the next successful Poll instead of being lost.
func (t *Tailer) Poll() (core.Delta, error) {
	return t.poll(maxPollBytes)
}

// poll is Poll reading at most limit bytes per archive.
func (t *Tailer) poll(limit int64) (core.Delta, error) {
	var d core.Delta
	before := t.files
	for i := range t.files {
		b, err := t.files[i].read(limit)
		if err != nil {
			t.files = before
			return core.Delta{}, err
		}
		switch i {
		case 0:
			d.Accounting = b
		case 1:
			d.Apsys = b
		case 2:
			d.Syslog = b
		}
	}
	return d, nil
}

// rest returns, newline-terminated, the trailing partial line poll holds
// back in each archive, and stops holding it. At the end of input no writer
// will complete such a fragment (a torn or copied log ends without a
// newline), so it is the archive's last line. Only Syncer.SyncAll, a batch
// read, calls it.
func (t *Tailer) rest() core.Delta {
	var d core.Delta
	for i, dst := range []*[]byte{&d.Accounting, &d.Apsys, &d.Syslog} {
		if f := &t.files[i]; len(f.carry) > 0 {
			*dst, f.carry = append(f.carry, '\n'), nil
		}
	}
	return d
}

// read returns the new complete lines of one archive, reading at most limit
// bytes.
func (f *tailFile) read(limit int64) ([]byte, error) {
	fh, err := os.Open(f.path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil // not written yet (or rotated away mid-switch)
	}
	if err != nil {
		return nil, fmt.Errorf("store: tail %s: %w", f.path, err)
	}
	defer fh.Close()

	fi, err := fh.Stat()
	if err != nil {
		return nil, fmt.Errorf("store: tail %s: %w", f.path, err)
	}
	id, idOK := fileID(fi)
	rotated := fi.Size() < f.offset
	if !rotated && idOK && f.inodeOK && id != f.inode {
		// Same-or-larger replacement file: the size heuristic is blind to
		// it, but the identity changed, so the offset refers to bytes of a
		// file that no longer exists.
		rotated = true
	}
	if rotated {
		// Rotation: the held-back partial line belonged to the old file and
		// its completion is gone; drop it and restart from the top.
		f.offset = 0
		f.carry = nil
	}
	f.inode, f.inodeOK = id, idOK
	if fi.Size() == f.offset {
		return nil, nil
	}
	if _, err := fh.Seek(f.offset, io.SeekStart); err != nil {
		return nil, fmt.Errorf("store: tail %s: %w", f.path, err)
	}
	want := min(fi.Size()-f.offset, limit)
	buf := make([]byte, want)
	n, err := io.ReadFull(fh, buf)
	if err != nil && err != io.ErrUnexpectedEOF {
		return nil, fmt.Errorf("store: tail %s: %w", f.path, err)
	}
	buf = buf[:n]
	f.offset += int64(n)

	// Prepend the held-back fragment, then hold back the new trailing
	// fragment (bytes after the last newline).
	if len(f.carry) > 0 {
		buf = append(f.carry, buf...)
		f.carry = nil
	}
	cut := len(buf)
	for cut > 0 && buf[cut-1] != '\n' {
		cut--
	}
	if cut < len(buf) {
		f.carry = append([]byte(nil), buf[cut:]...)
		buf = buf[:cut]
	}
	if len(buf) == 0 {
		return nil, nil
	}
	return buf, nil
}
