package stream

import (
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
			if err := OrderedRecycledBlocks(strings.NewReader(input), blockSize, workers, digest,
				func(s sum) error { got = append(got, s); return nil }); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("blockSize=%d workers=%d: recycled blocks diverge from numbered blocks (%d vs %d blocks)",
					blockSize, workers, len(got), len(want))
				continue
			}
			total := 0
			for _, s := range want {
				total += s.bytes
			}
			if total != len(input) {
				t.Errorf("blockSize=%d workers=%d: blocks cover %d bytes, input has %d", blockSize, workers, total, len(input))
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
	err := OrderedRecycledBlocks(strings.NewReader(input), 5, 2,
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
}
