package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"logdiver/internal/alps"
	"logdiver/internal/correlate"
	"logdiver/internal/machine"
	"logdiver/internal/store"
	"logdiver/internal/taxonomy"
)

// runsPageBody is the decoded /v1/runs response envelope.
type runsPageBody struct {
	Epoch      uint64 `json:"epoch"`
	Total      int    `json:"total"`
	Count      int    `json:"count"`
	NextCursor string `json:"next_cursor"`
	Runs       []struct {
		ApID    uint64 `json:"apid"`
		Class   string `json:"class"`
		Outcome string `json:"outcome"`
	} `json:"runs"`
}

// pagingServer serves a synthetic snapshot with exactly n runs, apids 1..n.
func pagingServer(t *testing.T, n int) (*Server, *store.Store) {
	t.Helper()
	top, err := machine.New(machine.Small())
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	st.Install(syntheticSnapshot(t, top, n))
	return newTestServer(t, st, Config{}), st
}

func getRunsPage(t *testing.T, srv *Server, path string) runsPageBody {
	t.Helper()
	rec := get(t, srv, path, nil)
	if rec.Code != 200 {
		t.Fatalf("%s: status %d body %s", path, rec.Code, rec.Body.String())
	}
	var body runsPageBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("%s: bad JSON: %v", path, err)
	}
	return body
}

// TestRunsPagination is the table-driven /v1/runs suite over a 250-run
// snapshot: first, middle, and last pages, a cursor beyond the end, and
// page-size clamping.
func TestRunsPagination(t *testing.T) {
	const n = 250
	srv, _ := pagingServer(t, n)

	tests := []struct {
		name       string
		path       string
		wantCount  int
		wantFirst  uint64 // apid of first row (0 = no rows)
		wantLast   uint64
		wantCursor string // "" = no next_cursor expected
	}{
		{
			name: "first page default limit", path: "/v1/runs",
			wantCount: 100, wantFirst: 1, wantLast: 100, wantCursor: encodeCursor(100),
		},
		{
			name: "first page small limit", path: "/v1/runs?limit=50",
			wantCount: 50, wantFirst: 1, wantLast: 50, wantCursor: encodeCursor(50),
		},
		{
			name: "middle page", path: "/v1/runs?cursor=" + encodeCursor(100),
			wantCount: 100, wantFirst: 101, wantLast: 200, wantCursor: encodeCursor(200),
		},
		{
			name: "last partial page", path: "/v1/runs?cursor=" + encodeCursor(200),
			wantCount: 50, wantFirst: 201, wantLast: 250, wantCursor: "",
		},
		{
			name: "exactly at end", path: "/v1/runs?cursor=" + encodeCursor(250),
			wantCount: 0, wantCursor: "",
		},
		{
			name: "cursor beyond end", path: "/v1/runs?cursor=" + encodeCursor(99999),
			wantCount: 0, wantCursor: "",
		},
		{
			name: "zero cursor is the first page", path: "/v1/runs?cursor=" + encodeCursor(0) + "&limit=10",
			wantCount: 10, wantFirst: 1, wantLast: 10, wantCursor: encodeCursor(10),
		},
		{
			name: "limit clamped to MaxPageSize", path: "/v1/runs?limit=5000",
			wantCount: n, wantFirst: 1, wantLast: 250, wantCursor: "",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			body := getRunsPage(t, srv, tc.path)
			if body.Total != n {
				t.Errorf("total %d, want %d", body.Total, n)
			}
			if body.Count != tc.wantCount || len(body.Runs) != tc.wantCount {
				t.Fatalf("count %d (rows %d), want %d", body.Count, len(body.Runs), tc.wantCount)
			}
			if body.NextCursor != tc.wantCursor {
				t.Errorf("next_cursor %q, want %q", body.NextCursor, tc.wantCursor)
			}
			if tc.wantCount > 0 {
				if body.Runs[0].ApID != tc.wantFirst {
					t.Errorf("first apid %d, want %d", body.Runs[0].ApID, tc.wantFirst)
				}
				if got := body.Runs[len(body.Runs)-1].ApID; got != tc.wantLast {
					t.Errorf("last apid %d, want %d", got, tc.wantLast)
				}
			}
			for i := 1; i < len(body.Runs); i++ {
				if body.Runs[i].ApID <= body.Runs[i-1].ApID {
					t.Fatalf("rows not strictly ascending at %d: %d then %d",
						i, body.Runs[i-1].ApID, body.Runs[i].ApID)
				}
			}
		})
	}
}

// TestRunsPaginationErrors pins the 400s: malformed or non-canonical
// cursors and bad limits never mis-position silently.
func TestRunsPaginationErrors(t *testing.T) {
	srv, _ := pagingServer(t, 10)
	bad := []string{
		"/v1/runs?cursor=xx:1",
		"/v1/runs?cursor=r1:",
		"/v1/runs?cursor=r1:!!",
		"/v1/runs?cursor=r1:01", // leading zero: non-canonical
		"/v1/runs?cursor=r1:A",  // uppercase: non-canonical
		"/v1/runs?cursor=12345", // missing prefix
		"/v1/runs?limit=0",
		"/v1/runs?limit=-5",
		"/v1/runs?limit=abc",
		"/v1/runs?limit=1.5",
	}
	for _, path := range bad {
		rec := get(t, srv, path, nil)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, rec.Code)
		}
		var e errResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: 400 without a JSON error body: %q", path, rec.Body.String())
		}
	}
}

// TestRunsTraversal walks the whole collection through next_cursor links
// and asserts every run is seen exactly once, in ascending apid order.
func TestRunsTraversal(t *testing.T) {
	const n = 137 // not a multiple of the page size: the tail page is short
	srv, _ := pagingServer(t, n)

	seen := make(map[uint64]bool, n)
	cursor := ""
	var lastApID uint64
	for page := 0; ; page++ {
		if page > n {
			t.Fatal("traversal did not terminate")
		}
		path := "/v1/runs?limit=30"
		if cursor != "" {
			path += "&cursor=" + cursor
		}
		body := getRunsPage(t, srv, path)
		for _, r := range body.Runs {
			if seen[r.ApID] {
				t.Fatalf("apid %d seen twice", r.ApID)
			}
			if r.ApID <= lastApID {
				t.Fatalf("ordering broke across pages: %d after %d", r.ApID, lastApID)
			}
			seen[r.ApID] = true
			lastApID = r.ApID
		}
		if body.NextCursor == "" {
			break
		}
		cursor = body.NextCursor
	}
	if len(seen) != n {
		t.Fatalf("traversal saw %d runs, want %d", len(seen), n)
	}
}

// TestRunsOrderingStableAcrossEpochs reissues the same cursor after an
// epoch advance: the page holds the same apid sequence (apids are never
// renumbered), and only the reported epoch moves.
func TestRunsOrderingStableAcrossEpochs(t *testing.T) {
	srv, st := pagingServer(t, 120)
	path := "/v1/runs?cursor=" + encodeCursor(40) + "&limit=25"

	before := getRunsPage(t, srv, path)
	snap := *st.Current()
	st.Install(&snap) // epoch 2, same runs
	after := getRunsPage(t, srv, path)

	if before.Epoch != 1 || after.Epoch != 2 {
		t.Fatalf("epochs %d → %d, want 1 → 2", before.Epoch, after.Epoch)
	}
	if len(before.Runs) != len(after.Runs) {
		t.Fatalf("page size changed across epochs: %d → %d", len(before.Runs), len(after.Runs))
	}
	for i := range before.Runs {
		if before.Runs[i].ApID != after.Runs[i].ApID {
			t.Fatalf("row %d changed across epochs: apid %d → %d",
				i, before.Runs[i].ApID, after.Runs[i].ApID)
		}
	}
	if before.NextCursor != after.NextCursor {
		t.Errorf("next_cursor changed across epochs: %q → %q", before.NextCursor, after.NextCursor)
	}
}

// TestCursorRoundTrip pins encode/parse as exact inverses over interesting
// values.
func TestCursorRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 35, 36, 100, 1 << 32, ^uint64(0)} {
		s := encodeCursor(v)
		got, err := parseCursor(s)
		if err != nil || got != v {
			t.Errorf("round trip %d via %q: got %d, err %v", v, s, got, err)
		}
	}
	if v, err := parseCursor(""); err != nil || v != 0 {
		t.Errorf("empty cursor: got %d, err %v", v, err)
	}
}

// FuzzParseCursor asserts cursor parsing never panics and accepts exactly
// the canonical encodings: any accepted token re-encodes to itself.
func FuzzParseCursor(f *testing.F) {
	f.Add("")
	f.Add("r1:0")
	f.Add("r1:zz")
	f.Add("r1:01")
	f.Add("r1:A")
	f.Add("r1:")
	f.Add("xx:5")
	f.Add(encodeCursor(^uint64(0)))
	f.Add("r1:3w5e11264sgsg") // ^uint64(0)+1 territory: overflow must error
	f.Add(strings.Repeat("z", 64))
	f.Fuzz(func(t *testing.T, s string) {
		v, err := parseCursor(s)
		if err != nil {
			return
		}
		if s == "" {
			if v != 0 {
				t.Fatalf("empty cursor parsed to %d", v)
			}
			return
		}
		if got := encodeCursor(v); got != s {
			t.Fatalf("non-canonical token %q accepted (re-encodes to %q)", s, got)
		}
		// Accepted tokens must round-trip through the HTTP layer unescaped.
		if strings.ContainsAny(s, "&=?# %") {
			t.Fatalf("accepted token %q needs URL escaping", s)
		}
	})
}

// runListRow is the reference /v1/runs row: the struct whose json.Marshal
// bytes appendRunRow must reproduce exactly.
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

// referenceRunsPage renders a page the reflective way: the envelope
// through fmt, each row through json.Marshal of a runListRow.
func referenceRunsPage(t testing.TB, snap *store.Snapshot, afterApID uint64, limit int) []byte {
	t.Helper()
	runs, last := snap.RunsPage(afterApID, limit)
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"epoch":%d,"total":%d,"count":%d,`, snap.Epoch, snap.TotalRuns(), len(runs))
	if len(runs) == limit {
		fmt.Fprintf(&b, `"next_cursor":%q,`, encodeCursor(last))
	}
	b.WriteString(`"runs":[`)
	for i, run := range runs {
		if i > 0 {
			b.WriteByte(',')
		}
		row, err := json.Marshal(makeRunListRow(run))
		if err != nil {
			t.Fatal(err)
		}
		b.Write(row)
	}
	b.WriteString("]}\n")
	return b.Bytes()
}

// chunkWriter records the largest single Write it was handed.
type chunkWriter struct {
	bytes.Buffer
	maxWrite int
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	w.maxWrite = max(w.maxWrite, len(p))
	return w.Buffer.Write(p)
}

// TestRunsPageMatchesMarshal walks every page of the realistic fixture at
// several page sizes through the HTTP handler — the cached default page
// included — and requires each body to equal the reflective reference byte
// for byte.
func TestRunsPageMatchesMarshal(t *testing.T) {
	st := testStore(t)
	srv := newTestServer(t, st, Config{})
	snap := st.Current()

	// Precondition: the fixture emits the optional cause member and
	// durations that are not whole seconds, or equality proves little.
	var sysFails, fractional int
	for i := range snap.Result.Runs {
		r := &snap.Result.Runs[i]
		if r.Outcome == correlate.OutcomeSystemFailure {
			sysFails++
		}
		if r.Duration()%time.Second != 0 {
			fractional++
		}
	}
	if sysFails == 0 || fractional == 0 {
		t.Fatalf("fixture has %d system failures and %d fractional durations of %d runs; want both > 0",
			sysFails, fractional, len(snap.Result.Runs))
	}
	t.Logf("fixture: %d runs, %d system failures, %d fractional durations", len(snap.Result.Runs), sysFails, fractional)

	for _, limit := range []int{1, 7, 100, 200, 1000} {
		var after uint64
		seen := 0
		for page := 0; ; page++ {
			path := fmt.Sprintf("/v1/runs?limit=%d", limit)
			if page > 0 {
				path += "&cursor=" + encodeCursor(after)
			}
			rec := get(t, srv, path, nil)
			want := referenceRunsPage(t, snap, after, limit)
			if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
				n := 0
				for n < min(len(got), len(want)) && got[n] == want[n] {
					n++
				}
				t.Fatalf("%s: body differs from the reference at byte %d:\n got %.120q\nwant %.120q",
					path, n, got[n:], want[n:])
			}
			runs, last := snap.RunsPage(after, limit)
			seen += len(runs)
			if len(runs) < limit {
				break
			}
			after = last
		}
		if seen != snap.TotalRuns() {
			t.Fatalf("limit %d: pages held %d runs, want %d", limit, seen, snap.TotalRuns())
		}
	}

	// The largest page reaches the writer in bounded pieces.
	var w chunkWriter
	if err := writeRunsPage(&w, snap, 0, MaxPageSize); err != nil {
		t.Fatal(err)
	}
	if w.maxWrite > pageBufSize {
		t.Errorf("a %d-run page was written in a %d-byte piece; want at most %d", snap.TotalRuns(), w.maxWrite, pageBufSize)
	}
}

// FuzzRunRowMatchesMarshal holds appendRunRow to the reflective reference on
// values the fixture never has: strings needing JSON or HTML escaping,
// control bytes, invalid UTF-8, U+2028/U+2029, durations of any
// nanosecond count (zero, negative, and those encoding/json prints with an
// exponent), every outcome, and classes and causes outside their enums.
func FuzzRunRowMatchesMarshal(f *testing.F) {
	f.Add("1000000.bw", "u0412", uint64(1), int32(96), 1536, int64(1248690000000), uint8(1), 0, uint8(1))
	// One character needing escaping per string, so dropping any single
	// one from the verbatim test fails a seed.
	f.Add("a<b", "a>b", uint64(0), int32(0), 0, int64(0), uint8(4), 3, uint8(2))
	f.Add("a&b", `a"b`, uint64(0), int32(0), 0, int64(0), uint8(4), 3, uint8(2))
	f.Add(`a\b`, "a\x7fb", uint64(0), int32(0), 0, int64(0), uint8(4), 3, uint8(2))
	f.Add("a\x1fb", "a\x00b", uint64(0), int32(0), 0, int64(0), uint8(4), 3, uint8(2))
	f.Add("\xff\xfe", "\u2028\u2029", ^uint64(0), int32(-1), -1, int64(-1), uint8(4), 1<<20, uint8(9))
	f.Add("é", "", uint64(42), int32(math.MaxInt32), math.MinInt, int64(999), uint8(0), -7, uint8(0))
	f.Add("a b", "~", uint64(7), int32(1), 1, int64(1000), uint8(3), 0, uint8(3))
	f.Add("x", "y", uint64(8), int32(2), 2, int64(math.MaxInt64), uint8(6), 0, uint8(1))
	f.Add("x", "y", uint64(9), int32(2), 2, int64(math.MinInt64), uint8(4), 2, uint8(1))
	f.Fuzz(func(t *testing.T, jobID, user string, apid uint64, nodes int32, width int, durNs int64, outcome uint8, cause int, class uint8) {
		start := time.Date(2013, 4, 1, 0, 3, 24, 0, time.UTC)
		run := correlate.AttributedRun{
			AppRun: alps.AppRun{
				ApID:  apid,
				JobID: jobID,
				User:  user,
				Width: width,
				Start: start,
				End:   start.Add(time.Duration(durNs)),
			},
			Attribution: correlate.Attribution{
				Class:   machine.NodeClass(class % 5),
				Outcome: correlate.Outcome(outcome % 7),
				Cause:   taxonomy.Category(cause),
				Nodes:   nodes,
			},
		}
		want, err := json.Marshal(makeRunListRow(&run))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendRunRow(nil, &run); !bytes.Equal(got, want) {
			t.Fatalf("row differs from json.Marshal:\n got %q\nwant %q", got, want)
		}
	})
}
