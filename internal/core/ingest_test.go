package core

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"logdiver/internal/machine"
	"logdiver/internal/stream"
	"logdiver/internal/wlm"
)

// withBlockSize runs fn with the ingestion block size set to n.
func withBlockSize(n int, fn func()) {
	defer func(old int) { ingestBlockSize = old }(ingestBlockSize)
	ingestBlockSize = n
	fn()
}

// TestAnalyzeInvariantToWorkersAndBlockSize is the differential equivalence
// test of the ingestion engine: over a multi-day synthesized dataset (with
// injected duplicates and malformed lines), Analyze must produce a Result
// exactly equal — field for field, including every run, event, tuple, group
// and parse counter — at every worker count and block size. The reference is
// one worker over a block size larger than any archive: each archive is one
// block, i.e. a sequential scan. The tiny block size puts thousands of block
// boundaries in the middle of the archives, including inside malformed-line
// neighborhoods. Run it under -race to also certify the worker pool.
func TestAnalyzeInvariantToWorkersAndBlockSize(t *testing.T) {
	ds := testDataset(t)
	acc, aps, sys := archiveText(t, ds)
	oneBlock := len(acc) + len(aps) + len(sys)
	var want *Result
	withBlockSize(oneBlock, func() {
		var err error
		if want, err = Analyze(archivesFor(t, ds), ds.Topology, Options{Parallelism: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if want.Parse.AccountingRecords == 0 || want.Parse.ApsysLines == 0 || want.Parse.SyslogLines == 0 {
		t.Fatalf("reference parsed nothing from some archive: %+v", want.Parse)
	}
	var wantJobs []wlm.Job
	withBlockSize(oneBlock, func() { wantJobs = assembledJobs(t, []byte(acc), ds.Topology, Options{Parallelism: 1}) })
	if len(wantJobs) == 0 {
		t.Fatal("reference assembled no job")
	}
	for _, blockSize := range []int{256, stream.DefaultBlockSize, oneBlock} {
		for _, workers := range []int{1, 2, 3, 4, 8} {
			withBlockSize(blockSize, func() {
				got, err := Analyze(archivesFor(t, ds), ds.Topology, Options{Parallelism: workers})
				if err != nil {
					t.Fatalf("blockSize %d workers %d: %v", blockSize, workers, err)
				}
				assertResultsEqual(t, want, got, workers)
				if jobs := assembledJobs(t, []byte(acc), ds.Topology, Options{Parallelism: workers}); !reflect.DeepEqual(jobs, wantJobs) {
					t.Errorf("blockSize %d workers %d: the assembled job table differs from a sequential scan's", blockSize, workers)
				}
			})
		}
	}
}

func assertResultsEqual(t *testing.T, serial, parallel *Result, workers int) {
	t.Helper()
	if serial.Parse != parallel.Parse {
		t.Errorf("workers %d: ParseStats differ:\nserial   %+v\nparallel %+v", workers, serial.Parse, parallel.Parse)
	}
	if serial.RawEvents != parallel.RawEvents {
		t.Errorf("workers %d: raw event counts differ: %d vs %d", workers, serial.RawEvents, parallel.RawEvents)
	}
	if serial.NumJobs != parallel.NumJobs {
		t.Fatalf("workers %d: job counts differ: %d vs %d", workers, serial.NumJobs, parallel.NumJobs)
	}
	if len(serial.Runs) != len(parallel.Runs) {
		t.Fatalf("workers %d: run counts differ: %d vs %d", workers, len(serial.Runs), len(parallel.Runs))
	}
	if len(serial.Events) != len(parallel.Events) {
		t.Fatalf("workers %d: event counts differ: %d vs %d", workers, len(serial.Events), len(parallel.Events))
	}
	// Pinpoint the first divergence before falling back to the whole-struct
	// comparison, so failures are debuggable.
	for i := range serial.Events {
		if !reflect.DeepEqual(serial.Events[i], parallel.Events[i]) {
			t.Fatalf("workers %d: event %d differs:\nserial   %+v\nparallel %+v",
				workers, i, serial.Events[i], parallel.Events[i])
		}
	}
	for i := range serial.Runs {
		if !reflect.DeepEqual(serial.Runs[i], parallel.Runs[i]) {
			t.Fatalf("workers %d: run %d differs:\nserial   %+v\nparallel %+v",
				workers, i, serial.Runs[i], parallel.Runs[i])
		}
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("workers %d: results differ outside runs/events (jobs, tuples, groups or span)", workers)
	}
}

// TestMalformedAccountingAcrossChunks: malformed accounting lines
// interleaved with good records — and block sizes chosen so the malformed
// lines land on and around chunk boundaries — must yield exactly the
// ParseStats of a one-worker scan at the default block size (one block,
// these archives being tiny). This guards the per-chunk malformed counters
// and the ordered merge.
func TestMalformedAccountingAcrossChunks(t *testing.T) {
	top, err := machine.New(machine.Small())
	if err != nil {
		t.Fatal(err)
	}
	goodRecord := func(i int) string {
		stamp := time.Date(2013, 4, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Minute)
		return stamp.Format("01/02/2006 15:04:05") + ";E;job" + strconv.Itoa(i) + ".bw;user=alice Exit_status=0"
	}
	cases := []struct {
		name  string
		lines []string
	}{
		{"malformed-between-every-record", []string{
			goodRecord(1), "corrupt line one", goodRecord(2), "corrupt;two", goodRecord(3),
			"04/01/2013 bad;E;x;user=a", goodRecord(4),
		}},
		{"leading-and-trailing-garbage", []string{
			"### archive header noise", goodRecord(1), goodRecord(2), "truncated 04/0",
		}},
		{"runs-of-malformed", []string{
			goodRecord(1), "bad", "bad", "bad", "bad", "bad", goodRecord(2), "bad", "bad", goodRecord(3),
		}},
		{"blank-lines-and-crlf", []string{
			goodRecord(1) + "\r", "", "   ", goodRecord(2), "notarecord\r", "",
		}},
		{"empty-archive", nil},
		{"only-malformed", []string{"a", "b", "c", "d"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			text := strings.Join(tc.lines, "\n")
			if len(tc.lines) > 0 {
				text += "\n"
			}
			serial, err := Analyze(Archives{Accounting: strings.NewReader(text)}, top, Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			serialJobs := assembledJobs(t, []byte(text), top, Options{Parallelism: 1})
			// Sweep block sizes small enough that every line relationship
			// (same block, adjacent blocks, block-per-line) occurs.
			for _, blockSize := range []int{1, 16, 33, 64, 128, 1 << 20} {
				withBlockSize(blockSize, func() {
					parallel, err := Analyze(Archives{Accounting: strings.NewReader(text)}, top, Options{Parallelism: 4})
					if err != nil {
						t.Fatalf("blockSize %d: %v", blockSize, err)
					}
					if serial.Parse != parallel.Parse {
						t.Errorf("blockSize %d: ParseStats differ:\nserial   %+v\nparallel %+v",
							blockSize, serial.Parse, parallel.Parse)
					}
					if !reflect.DeepEqual(assembledJobs(t, []byte(text), top, Options{Parallelism: 4}), serialJobs) {
						t.Errorf("blockSize %d: assembled jobs differ", blockSize)
					}
				})
			}
		})
	}
}
