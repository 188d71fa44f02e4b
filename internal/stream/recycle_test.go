package stream

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"
)

// TestOrderedRecycledBlocksMatchesNumbered runs the same input through
// Ordered over NumberedBlocks (fresh block buffers, the reference) and
// through OrderedRecycledBlocks and requires identical per-block summaries
// in identical order. The summaries (checksum, byte and line counts,
// first-line provenance) are computed inside apply because the recycled
// variant forbids retaining block bytes past consume.
func TestOrderedRecycledBlocksMatchesNumbered(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&b, "line %d: some log payload of moderate length %d\n", i, i*i)
	}
	input := b.String()

	type sum struct {
		first, bytes, lines int
		hash                uint64
	}
	digest := func(blk Block) (sum, error) {
		h := fnv.New64a()
		h.Write(blk.Data)
		lines := 0
		ForEachLine(blk.Data, func([]byte) { lines++ })
		return sum{first: blk.FirstLine, bytes: len(blk.Data), lines: lines, hash: h.Sum64()}, nil
	}

	for _, blockSize := range []int{64, 1024, 1 << 20} {
		for _, workers := range []int{1, 4} {
			var want, got []sum
			if err := Ordered(workers,
				func(emit func(Block) bool) error { return NumberedBlocks(strings.NewReader(input), blockSize, emit) },
				digest,
				func(s sum) error { want = append(want, s); return nil }); err != nil {
				t.Fatal(err)
			}
			n, err := OrderedRecycledBlocks(strings.NewReader(input), blockSize, workers, digest,
				func(s sum) error { got = append(got, s); return nil })
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("blockSize=%d workers=%d: recycled blocks diverge from numbered blocks (%d vs %d blocks)",
					blockSize, workers, len(got), len(want))
				continue
			}
			total, lines := 0, 0
			for _, s := range want {
				total += s.bytes
				lines += s.lines
			}
			if total != len(input) {
				t.Errorf("blockSize=%d workers=%d: blocks cover %d bytes, input has %d", blockSize, workers, total, len(input))
			}
			if n != lines {
				t.Errorf("blockSize=%d workers=%d: OrderedRecycledBlocks reports %d lines, its blocks hold %d", blockSize, workers, n, lines)
			}
		}
	}
}

// TestOrderedRecycledBlocksUnterminatedTail checks the final unterminated
// fragment still comes through the pooled path with correct provenance.
func TestOrderedRecycledBlocksUnterminatedTail(t *testing.T) {
	input := "one\ntwo\nthree without newline"
	var lines []string
	var firsts []int
	n, err := OrderedRecycledBlocks(strings.NewReader(input), 5, 2,
		func(b Block) ([]string, error) {
			var out []string
			ForEachLine(b.Data, func(l []byte) { out = append(out, string(l)) })
			return out, nil
		},
		func(out []string) error { lines = append(lines, out...); firsts = append(firsts, len(out)); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"one", "two", "three without newline"}; !reflect.DeepEqual(lines, want) {
		t.Errorf("lines = %q, want %q", lines, want)
	}
	if n != 3 {
		t.Errorf("OrderedRecycledBlocks read %d lines, want 3", n)
	}
}

// keepViews runs input through OrderedRecycledBlocks with a consume that
// breaks the contract on purpose: it keeps every block's bytes as a view.
func keepViews(t *testing.T, input string, blockSize, workers int) (kept [][]byte) {
	t.Helper()
	_, err := OrderedRecycledBlocks(strings.NewReader(input), blockSize, workers,
		func(b Block) ([]byte, error) { return b.Data, nil },
		func(view []byte) error {
			if !strings.Contains(input, string(view)) {
				t.Errorf("block bytes already overwritten inside consume: %.40q", view)
			}
			kept = append(kept, view)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	return kept
}

// TestRecycledBlocksArePoisoned is the self-test of the pooled-view oracle:
// every differential and golden test in the module relies on a retained view
// turning into garbage under go test, so a recycle that stops poisoning (or
// poisons with a constant, or only up to len) must fail here.
func TestRecycledBlocksArePoisoned(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&sb, "line %d: payload %d\n", i, i*i)
	}
	input := sb.String()

	// Whatever the reuse order, each buffer's last event is a recycle, so
	// after the call every kept view is one repeated byte across its whole
	// capacity — block tails beyond len included.
	for _, workers := range []int{1, 4} {
		kept := keepViews(t, input, 512, workers)
		if len(kept) < 8 {
			t.Fatalf("workers=%d: only %d blocks, want a multi-block input", workers, len(kept))
		}
		for i, view := range kept {
			full := view[:cap(view)]
			if n := bytes.Count(full, full[:1]); n != len(full) {
				t.Fatalf("workers=%d block %d: %d of %d bytes (cap, len %d) carry the fill byte %#x; a retained view survived its recycle",
					workers, i, n, len(full), len(view), full[0])
			}
		}
	}

	// One block is one recycle: two runs must not leave the same garbage,
	// or two runs of the same buggy engine would still compare equal. The
	// second run may reuse the first one's buffer, so read each fill at once.
	var fills [2]byte
	for i := range fills {
		kept := keepViews(t, input, len(input), 1)
		if len(kept) != 1 {
			t.Fatalf("single-block input split into %d blocks", len(kept))
		}
		fills[i] = kept[0][0]
	}
	if fills[0] == fills[1] {
		t.Errorf("consecutive recycles used the same fill byte %#x", fills[0])
	}
}
