// Package stream provides the building blocks of the streaming ingestion
// layer: a chunked reader that splits an archive into line-aligned
// byte blocks, and an ordered fan-out/fan-in engine that applies a function
// to those blocks on a bounded worker pool while delivering results in
// production order. Together they let the pipeline parse and classify log
// archives on every core while producing output that does not depend on the
// worker count or the block size.
package stream

import (
	"bufio"
	"bytes"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"logdiver/internal/parse"
)

// DefaultBlockSize is the block granularity used by archive ingestion when
// the caller does not choose one. Large enough that per-block overhead
// (channel hops, slice headers) is negligible against parse work; small
// enough that a handful of blocks are in flight per worker.
const DefaultBlockSize = 256 << 10

// MaxLineBytes is the per-line acceptance cap shared with the parsers
// (parse.MaxLineBytes). Lines beyond it still travel through the block
// reader whole — the parsers account them as oversize-malformed — so lenient
// ingestion can skip-and-count an oversized line instead of aborting the
// archive. Only a line beyond parse.AbsMaxLineBytes (input that is not
// line-structured at all) fails the read with bufio.ErrTooLong.
const MaxLineBytes = parse.MaxLineBytes

// Block is one line-aligned chunk of an archive together with the 1-based
// line number of its first line, so block parsers can report malformed-line
// provenance as archive line numbers.
type Block struct {
	Data []byte
	// FirstLine is the 1-based archive line number of the block's first line.
	FirstLine int
}

// NumberedBlocks reads r as a sequence of byte blocks of roughly blockSize
// bytes, each extended (or shrunk) to end on a line boundary so no line is
// ever split across blocks, and each carrying the archive line number of its
// first line. Every emitted block is freshly allocated and safe to retain or
// hand to another goroutine. The final block is emitted even when the input
// does not end in a newline. Emission stops without error when emit returns
// false. blockSize < 1 selects DefaultBlockSize.
func NumberedBlocks(r io.Reader, blockSize int, emit func(Block) bool) error {
	_, err := splitBlocks(r, blockSize,
		func(n int) *[]byte {
			b := make([]byte, 0, n)
			return &b
		},
		func(b Block, _ *[]byte) bool { return emit(b) })
	return err
}

// blockBufPool recycles block buffers for OrderedRecycledBlocks. Pooled
// buffers are stored as *[]byte to avoid an allocation per Put.
var blockBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, DefaultBlockSize+(4<<10))
		return &b
	},
}

var poisonSeq atomic.Uint32 // recycles so far; the low byte is the fill

// poison overwrites a buffer about to be recycled, in test binaries only
// (testing.Testing()): programs pay one branch per block.
func poison(buf []byte) {
	if !testing.Testing() {
		return
	}
	buf = buf[:cap(buf)]
	fill := byte(poisonSeq.Add(1))
	for i := range buf {
		buf[i] = fill
	}
}

// splitBlocks is the block splitter. Each block is built inside the buffer
// getBuf returns for its length (a fresh one for NumberedBlocks, one drawn
// from blockBufPool for OrderedRecycledBlocks); emit receives that handle
// alongside the block and owns the buffer from then on. It returns the lines
// of the blocks emitted, an unterminated last line included.
func splitBlocks(r io.Reader, blockSize int, getBuf func(n int) *[]byte, emit func(b Block, buf *[]byte) bool) (int, error) {
	if blockSize < 1 {
		blockSize = DefaultBlockSize
	}
	var carry []byte
	line := 1
	flush := func(head, tail []byte) bool {
		bp := getBuf(len(head) + len(tail))
		block := append(append((*bp)[:0], head...), tail...)
		*bp = block
		first := line
		line += bytes.Count(block, []byte("\n"))
		return emit(Block{Data: block, FirstLine: first}, bp)
	}
	buf := make([]byte, blockSize)
	for {
		n, err := r.Read(buf)
		if n > 0 {
			data := buf[:n]
			if i := bytes.LastIndexByte(data, '\n'); i >= 0 {
				if !flush(carry, data[:i+1]) {
					return line - 1, nil
				}
				carry = append(carry[:0], data[i+1:]...)
			} else {
				carry = append(carry, data...)
			}
			if len(carry) > parse.AbsMaxLineBytes {
				return line - 1, bufio.ErrTooLong
			}
		}
		switch err {
		case nil:
		case io.EOF:
			if len(carry) > 0 {
				flush(carry, nil)
				line++ // the unterminated last line
			}
			return line - 1, nil
		default:
			return line - 1, err
		}
	}
}

// OrderedRecycledBlocks is the ingestion engine: it reads r in line-aligned
// numbered blocks and processes them with Ordered — apply on the worker
// pool, consume in archive order. Each block's backing buffer is drawn from
// an internal pool and returned to it after consume finishes with the
// corresponding output, so neither apply's Out value nor consume may retain
// any bytes of the block past consume's return — everything kept must be
// copied (or interned) first. In exchange the steady-state ingestion path
// does not allocate one fresh block per DefaultBlockSize of input. It returns
// the lines read, counted where the blocks are split (a final unterminated
// line counts as one), so no caller passes over the bytes a second time.
//
// Inside a test binary every buffer is first overwritten to its full
// capacity with a fill byte that changes on each recycle (see poison): a
// view that outlived its block then reads as one repeated byte, a different
// one in any two runs, and the differential and golden tests fail on it.
// That is the whole retention check; nothing static stands behind it.
func OrderedRecycledBlocks[Out any](r io.Reader, blockSize, workers int, apply func(b Block) (Out, error), consume func(Out) error) (lines int, err error) {
	type job struct {
		b   Block
		buf *[]byte
	}
	type recycled struct {
		out Out
		buf *[]byte
	}
	err = Ordered(workers,
		func(emit func(job) bool) error {
			var err error
			lines, err = splitBlocks(r, blockSize,
				func(int) *[]byte { return blockBufPool.Get().(*[]byte) },
				func(b Block, buf *[]byte) bool { return emit(job{b: b, buf: buf}) })
			return err
		},
		func(j job) (recycled, error) {
			out, err := apply(j.b)
			return recycled{out: out, buf: j.buf}, err
		},
		func(rc recycled) error {
			err := consume(rc.out)
			poison(*rc.buf)
			blockBufPool.Put(rc.buf)
			return err
		})
	return lines, err
}

// ForEachLine splits a block into lines with the exact semantics of
// bufio.ScanLines: lines are terminated by '\n', one trailing '\r' is
// stripped, and a final unterminated line is still yielded. Empty lines are
// yielded too; skipping them is caller policy.
func ForEachLine(block []byte, fn func(line []byte)) {
	for len(block) > 0 {
		var line []byte
		if i := bytes.IndexByte(block, '\n'); i >= 0 {
			line, block = block[:i], block[i+1:]
		} else {
			line, block = block, nil
		}
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		fn(line)
	}
}

// Ordered runs apply over the items yielded by produce on a pool of worker
// goroutines and calls consume exactly once per item, in production order,
// regardless of the order in which workers finish. produce is called on its
// own goroutine and must yield items through emit, stopping when emit
// returns false (which happens after a downstream error). apply runs
// concurrently and must not touch shared mutable state; consume runs on the
// caller's goroutine only. The first error from any of the three callbacks
// cancels the pipeline and is returned.
func Ordered[In, Out any](workers int, produce func(emit func(In) bool) error, apply func(In) (Out, error), consume func(Out) error) error {
	if workers < 1 {
		workers = 1
	}
	type result struct {
		out Out
		err error
	}
	type task struct {
		in  In
		res chan result
	}

	done := make(chan struct{})
	var stopOnce sync.Once
	stop := func() { stopOnce.Do(func() { close(done) }) }

	jobs := make(chan task, workers)
	// order carries one future per item in production order; its capacity
	// bounds how far production can run ahead of consumption.
	order := make(chan chan result, 4*workers)

	var produceErr error
	go func() {
		defer close(jobs)
		defer close(order)
		produceErr = produce(func(in In) bool {
			res := make(chan result, 1)
			select {
			case order <- res:
			case <-done:
				return false
			}
			select {
			case jobs <- task{in: in, res: res}:
			case <-done:
				// The future was queued but no worker will fill it; the
				// consumer is already in drain mode and will not read it.
				return false
			}
			return true
		})
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range jobs {
				out, err := apply(t.in)
				t.res <- result{out: out, err: err}
			}
		}()
	}

	var firstErr error
	for res := range order {
		if firstErr != nil {
			continue // draining after an error; futures may never be filled
		}
		r := <-res
		if r.err != nil {
			firstErr = r.err
			stop()
			continue
		}
		if err := consume(r.out); err != nil {
			firstErr = err
			stop()
		}
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return produceErr
}

// Ranges yields [lo,hi) index ranges of size at most step covering [0,n),
// through emit, in ascending order. It is the producer used to parallelize
// formatting of in-memory slices (log emission), where the input is already
// materialized and only the indices need sharding.
func Ranges(n, step int, emit func(lo, hi int) bool) {
	if step < 1 {
		step = 1
	}
	for lo := 0; lo < n; lo += step {
		hi := lo + step
		if hi > n {
			hi = n
		}
		if !emit(lo, hi) {
			return
		}
	}
}
