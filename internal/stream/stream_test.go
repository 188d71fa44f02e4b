package stream

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"logdiver/internal/parse"
)

// iotaReader yields its payload in reads of varying sizes to exercise short
// reads and block-boundary handling.
type iotaReader struct {
	data []byte
	pos  int
	rng  *rand.Rand
}

func (r *iotaReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, io.EOF
	}
	n := 1 + r.rng.Intn(len(p))
	if n > len(r.data)-r.pos {
		n = len(r.data) - r.pos
	}
	copy(p, r.data[r.pos:r.pos+n])
	r.pos += n
	return n, nil
}

func TestBlocksReassembleInput(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&sb, "line %d with some padding text\n", i)
	}
	input := sb.String()
	for _, blockSize := range []int{1, 7, 64, 1 << 10, 1 << 20} {
		var got bytes.Buffer
		err := NumberedBlocks(&iotaReader{data: []byte(input), rng: rand.New(rand.NewSource(int64(blockSize)))}, blockSize,
			func(b Block) bool { got.Write(b.Data); return true })
		if err != nil {
			t.Fatalf("blockSize %d: %v", blockSize, err)
		}
		if got.String() != input {
			t.Fatalf("blockSize %d: reassembled output differs from input", blockSize)
		}
	}
}

func TestBlocksNoSplitLines(t *testing.T) {
	input := strings.Repeat("aaaa\nbb\ncccccccc\n", 500)
	err := NumberedBlocks(strings.NewReader(input), 32, func(b Block) bool {
		if len(b.Data) == 0 || b.Data[len(b.Data)-1] != '\n' {
			t.Fatalf("block does not end on a line boundary: %q", b.Data)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBlocksFinalUnterminatedLine(t *testing.T) {
	var blocks [][]byte
	err := NumberedBlocks(strings.NewReader("a\nb\nno newline at end"), 4, func(b Block) bool {
		blocks = append(blocks, b.Data)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	var all []byte
	for _, b := range blocks {
		all = append(all, b...)
	}
	if string(all) != "a\nb\nno newline at end" {
		t.Fatalf("got %q", all)
	}
}

func TestBlocksOversizedLinePassesThrough(t *testing.T) {
	// A line beyond the per-line acceptance cap is no longer fatal at the
	// block layer: it travels through whole so the parsers can account it
	// as oversize-malformed (lenient) or fail typed (strict).
	long := strings.Repeat("x", MaxLineBytes+2)
	input := "before\n" + long + "\nafter\n"
	var all []byte
	err := NumberedBlocks(strings.NewReader(input), 1<<16, func(b Block) bool {
		all = append(all, b.Data...)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(all) != input {
		t.Fatalf("oversized line mangled in transit: got %d bytes, want %d", len(all), len(input))
	}
}

func TestBlocksTooLongLine(t *testing.T) {
	// Beyond the absolute cap the input is not line-structured; the block
	// reader aborts.
	defer func(old int) { parse.AbsMaxLineBytes = old }(parse.AbsMaxLineBytes)
	parse.AbsMaxLineBytes = 1 << 12
	long := strings.Repeat("x", parse.AbsMaxLineBytes+2)
	err := NumberedBlocks(strings.NewReader(long), 1<<8, func(Block) bool { return true })
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("got %v, want bufio.ErrTooLong", err)
	}
}

func TestNumberedBlocksFirstLine(t *testing.T) {
	// 40 lines, block size small enough to force several blocks; the
	// FirstLine of each block must equal 1 + lines in all prior blocks.
	var input strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&input, "line number %d with some padding\n", i)
	}
	wantFirst := 1
	err := NumberedBlocks(strings.NewReader(input.String()), 100, func(b Block) bool {
		if b.FirstLine != wantFirst {
			t.Fatalf("block FirstLine = %d, want %d", b.FirstLine, wantFirst)
		}
		wantFirst += bytes.Count(b.Data, []byte("\n"))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if wantFirst != 41 {
		t.Fatalf("blocks covered %d lines, want 40", wantFirst-1)
	}
}

func TestForEachLineMatchesBufioScanner(t *testing.T) {
	inputs := []string{
		"a\nb\nc\n",
		"a\r\nb\r\n",
		"no trailing newline",
		"\n\n\n",
		"mixed\r\nendings\nhere\r\n",
		"trailing cr only\r",
	}
	for _, input := range inputs {
		var want []string
		sc := bufio.NewScanner(strings.NewReader(input))
		for sc.Scan() {
			want = append(want, sc.Text())
		}
		var got []string
		ForEachLine([]byte(input), func(line []byte) { got = append(got, string(line)) })
		if len(got) != len(want) {
			t.Fatalf("%q: got %d lines, want %d", input, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%q line %d: got %q, want %q", input, i, got[i], want[i])
			}
		}
	}
}

func TestOrderedPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8, 16} {
		const n = 2000
		var got []int
		err := Ordered(workers,
			func(emit func(int) bool) error {
				for i := 0; i < n; i++ {
					if !emit(i) {
						break
					}
				}
				return nil
			},
			func(i int) (int, error) { return i * i, nil },
			func(sq int) error { got = append(got, sq); return nil },
		)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if len(got) != n {
			t.Fatalf("workers %d: got %d results, want %d", workers, len(got), n)
		}
		for i, sq := range got {
			if sq != i*i {
				t.Fatalf("workers %d: result %d = %d, want %d (order broken)", workers, i, sq, i*i)
			}
		}
	}
}

func TestOrderedApplyError(t *testing.T) {
	boom := errors.New("boom")
	err := Ordered(4,
		func(emit func(int) bool) error {
			for i := 0; ; i++ {
				if !emit(i) {
					return nil
				}
			}
		},
		func(i int) (int, error) {
			if i == 37 {
				return 0, boom
			}
			return i, nil
		},
		func(int) error { return nil },
	)
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
}

func TestOrderedConsumeError(t *testing.T) {
	boom := errors.New("boom")
	var consumed int
	err := Ordered(4,
		func(emit func(int) bool) error {
			for i := 0; ; i++ {
				if !emit(i) {
					return nil
				}
			}
		},
		func(i int) (int, error) { return i, nil },
		func(i int) error {
			consumed++
			if i == 10 {
				return boom
			}
			return nil
		},
	)
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if consumed != 11 {
		t.Fatalf("consumed %d items, want 11 (in order, then stop)", consumed)
	}
}

func TestOrderedProduceError(t *testing.T) {
	boom := errors.New("boom")
	var got []int
	err := Ordered(3,
		func(emit func(int) bool) error {
			for i := 0; i < 5; i++ {
				emit(i)
			}
			return boom
		},
		func(i int) (int, error) { return i, nil },
		func(i int) error { got = append(got, i); return nil },
	)
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	if len(got) != 5 {
		t.Fatalf("consumed %d items before produce error surfaced, want 5", len(got))
	}
}

func TestRanges(t *testing.T) {
	var spans [][2]int
	Ranges(10, 3, func(lo, hi int) bool { spans = append(spans, [2]int{lo, hi}); return true })
	want := [][2]int{{0, 3}, {3, 6}, {6, 9}, {9, 10}}
	if len(spans) != len(want) {
		t.Fatalf("got %v, want %v", spans, want)
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Fatalf("got %v, want %v", spans, want)
		}
	}
	Ranges(0, 3, func(lo, hi int) bool { t.Fatal("emit called for n=0"); return true })
}
