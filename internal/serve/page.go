package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
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
// has no cursor. Pages are rendered as bounded streaming JSON: each row is
// appended as bytes straight from the snapshot's runs into one fixed-size
// buffer, flushed whenever it fills, so a maximum-size page costs the same
// small memory no matter how many runs the snapshot holds.

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

// appendCursor appends the opaque next-page token for a page ending at
// lastApID.
func appendCursor(b []byte, lastApID uint64) []byte {
	return strconv.AppendUint(append(b, cursorPrefix...), lastApID, 36)
}

// encodeCursor is appendCursor as a string.
func encodeCursor(lastApID uint64) string {
	var buf [len(cursorPrefix) + 13]byte // 13 base-36 digits hold any uint64
	return string(appendCursor(buf[:0], lastApID))
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

// pageBufSize bounds the buffer a page is appended into: whenever a row
// leaves less than pageRowRoom free, the buffer goes to the writer and
// starts over. A typical row is a few hundred bytes, so the buffer never
// grows; an outsized row grows it once, for that request only.
const (
	pageBufSize = 4096
	pageRowRoom = 512
)

// writeRunsPage writes one page as compact JSON. The cached default page
// and the uncached streaming path both go through this function, which is
// what makes them byte-identical. The rows are the snapshot's own runs,
// not copies, and the page is never held whole: it is appended into one
// bounded buffer that is flushed as it fills.
func writeRunsPage(w io.Writer, snap *store.Snapshot, afterApID uint64, limit int) error {
	runs, last := snap.RunsPage(afterApID, limit)
	b := make([]byte, 0, pageBufSize)
	b = append(b, `{"epoch":`...)
	b = strconv.AppendUint(b, snap.Epoch, 10)
	b = append(b, `,"total":`...)
	b = strconv.AppendInt(b, int64(snap.TotalRuns()), 10)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(len(runs)), 10)
	b = append(b, ',')
	if len(runs) == limit {
		// A full page may have more behind it; a short page is the end.
		b = appendCursor(append(b, `"next_cursor":"`...), last)
		b = append(b, `",`...)
	}
	b = append(b, `"runs":[`...)
	for i, run := range runs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendRunRow(b, run)
		if cap(b)-len(b) < pageRowRoom {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	b = append(b, "]}\n"...)
	_, err := w.Write(b)
	return err
}

// appendRunRow appends one /v1/runs row: the fields a consumer needs to
// decide whether to drill into /v1/runs/{apid}, in the bytes encoding/json
// would give a struct of them (page_test.go holds that struct and checks
// the two agree). The timestamps are RFC 3339 in UTC — digits, '-', ':',
// 'T' and 'Z' only — so they need no escaping.
func appendRunRow(b []byte, run *correlate.AttributedRun) []byte {
	b = append(b, `{"apid":`...)
	b = strconv.AppendUint(b, run.ApID, 10)
	b = append(b, `,"job_id":`...)
	b = appendJSONString(b, run.JobID)
	b = append(b, `,"user":`...)
	b = appendJSONString(b, run.User)
	b = append(b, `,"class":`...)
	b = appendJSONString(b, run.Class.String())
	b = append(b, `,"nodes":`...)
	b = strconv.AppendInt(b, int64(run.NumNodes()), 10)
	b = append(b, `,"width":`...)
	b = strconv.AppendInt(b, int64(run.Width), 10)
	b = append(b, `,"start":"`...)
	b = run.Start.UTC().AppendFormat(b, time.RFC3339)
	b = append(b, `","end":"`...)
	b = run.End.UTC().AppendFormat(b, time.RFC3339)
	b = append(b, `","duration_seconds":`...)
	b = appendJSONFloat(b, run.Duration().Seconds())
	b = append(b, `,"outcome":`...)
	b = appendJSONString(b, run.Outcome.String())
	if run.Outcome == correlate.OutcomeSystemFailure {
		b = append(b, `,"cause":`...)
		b = appendJSONString(b, run.Cause.String())
	}
	return append(b, '}')
}

// appendJSONString appends s as a JSON string. encoding/json writes
// printable ASCII as it is, except the quote, the backslash and the three
// characters it HTML-escapes; a string with any other byte is handed to
// json.Marshal whole, so control bytes, invalid UTF-8 and U+2028/U+2029
// come out exactly as encoding/json writes them.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat appends f as encoding/json writes a float64. Inside the
// range where it uses strconv's 'f' format (0, or 1e-6 <= |f| < 1e21) that
// is one strconv call; anything else is handed to json.Marshal.
func appendJSONFloat(b []byte, f float64) []byte {
	if a := math.Abs(f); a == 0 || (a >= 1e-6 && a < 1e21) {
		return strconv.AppendFloat(b, f, 'f', -1, 64)
	}
	q, _ := json.Marshal(f)
	return append(b, q...)
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
