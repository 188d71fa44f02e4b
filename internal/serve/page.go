package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"logdiver/internal/correlate"
	"logdiver/internal/store"
)

// Paginated run listing: GET /v1/runs?cursor=...&limit=N.
//
// Runs are ordered by ascending apid — apids are assigned at submission and
// never renumbered, so the order is stable across epochs and a client can
// page through a live daemon without ever seeing a run twice. The cursor is
// an opaque token naming the last apid of the previous page; the first page
// has no cursor. Pages are rendered as bounded streaming JSON: one row is
// marshaled at a time through a fixed-size buffer, so a maximum-size page
// costs the same small memory no matter how many runs the snapshot holds.

const (
	// DefaultPageSize is the /v1/runs page size when the request names
	// none. The default page (no cursor, default limit) is the one every
	// traversal starts from, so it is cached per epoch like the view
	// endpoints.
	DefaultPageSize = 100
	// MaxPageSize clamps client-requested page sizes.
	MaxPageSize = 1000
	// cursorPrefix versions the cursor scheme; unknown prefixes are
	// rejected so the scheme can evolve.
	cursorPrefix = "r1:"
)

// encodeCursor renders the opaque next-page token for a page ending at
// lastApID.
func encodeCursor(lastApID uint64) string {
	return cursorPrefix + strconv.FormatUint(lastApID, 36)
}

// parseCursor decodes a cursor query value. Empty means the first page.
// Only canonical tokens — exactly what encodeCursor produces — parse; any
// other form is a client error, never a panic or a silent misposition.
func parseCursor(s string) (afterApID uint64, err error) {
	if s == "" {
		return 0, nil
	}
	rest, ok := strings.CutPrefix(s, cursorPrefix)
	if !ok {
		return 0, fmt.Errorf("unrecognized cursor %q", s)
	}
	v, err := strconv.ParseUint(rest, 36, 64)
	if err != nil {
		return 0, fmt.Errorf("unrecognized cursor %q", s)
	}
	if encodeCursor(v) != s {
		// Non-canonical spellings (leading zeros, uppercase) are rejected
		// so every position has exactly one valid token.
		return 0, fmt.Errorf("unrecognized cursor %q", s)
	}
	return v, nil
}

// runListRow is one /v1/runs row: the fields a consumer needs to decide
// whether to drill into /v1/runs/{apid}.
type runListRow struct {
	ApID      uint64  `json:"apid"`
	JobID     string  `json:"job_id"`
	User      string  `json:"user"`
	Class     string  `json:"class"`
	Nodes     int     `json:"nodes"`
	Width     int     `json:"width"`
	Start     string  `json:"start"`
	End       string  `json:"end"`
	DurationS float64 `json:"duration_seconds"`
	Outcome   string  `json:"outcome"`
	Cause     string  `json:"cause,omitempty"`
}

// writeRunsPage streams one page as compact JSON through a fixed-size
// buffer. The cached default page and the uncached streaming path both go
// through this function, which is what makes them byte-identical.
func writeRunsPage(w io.Writer, snap *store.Snapshot, afterApID uint64, limit int) error {
	runs, last := snap.RunsPage(afterApID, limit)
	bw := bufio.NewWriterSize(w, 4096)
	fmt.Fprintf(bw, `{"epoch":%d,"total":%d,"count":%d,`, snap.Epoch, snap.TotalRuns(), len(runs))
	if len(runs) == limit {
		// A full page may have more behind it; a short page is the end.
		fmt.Fprintf(bw, `"next_cursor":%q,`, encodeCursor(last))
	}
	bw.WriteString(`"runs":[`)
	for i := range runs {
		if i > 0 {
			bw.WriteByte(',')
		}
		row := makeRunListRow(&runs[i])
		b, err := json.Marshal(row)
		if err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

func makeRunListRow(run *correlate.AttributedRun) runListRow {
	row := runListRow{
		ApID:      run.ApID,
		JobID:     run.JobID,
		User:      run.User,
		Class:     run.Class.String(),
		Nodes:     run.NumNodes(),
		Width:     run.Width,
		Start:     run.Start.UTC().Format(time.RFC3339),
		End:       run.End.UTC().Format(time.RFC3339),
		DurationS: run.Duration().Seconds(),
		Outcome:   run.Outcome.String(),
	}
	if run.Outcome == correlate.OutcomeSystemFailure {
		row.Cause = run.Cause.String()
	}
	return row
}

// renderRunsFirst renders the cacheable default page.
func renderRunsFirst(snap *store.Snapshot) []byte {
	var buf bytes.Buffer
	_ = writeRunsPage(&buf, snap, 0, DefaultPageSize)
	return buf.Bytes()
}

// handleRuns answers GET /v1/runs. The default page goes through the
// per-epoch view cache; every other (cursor, limit) combination streams.
func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.snapshot(w)
	if !ok {
		return
	}
	q := r.URL.Query()
	after, err := parseCursor(q.Get("cursor"))
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	limit := DefaultPageSize
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n <= 0 {
			s.writeErr(w, http.StatusBadRequest, fmt.Sprintf("bad limit %q: want a positive integer", ls))
			return
		}
		limit = min(n, MaxPageSize)
	}
	if after == 0 && limit == DefaultPageSize {
		s.serveView(w, r, snap, viewRunsFirst, false)
		return
	}
	// Dynamic page: same conditional semantics, streamed body, no gzip
	// (the page bound keeps identity responses small enough).
	if !s.notModified(w, r, s.etagFor(snap)) {
		_ = writeRunsPage(w, snap, after, limit)
	}
}
