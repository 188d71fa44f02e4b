package logdiver_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"logdiver"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

// TestExperimentTablesGolden pins rendered report tables from a full
// text-archive analysis against golden files: E1-E3 without ground truth,
// and every table Experiments returns with it. The whole chain —
// synthesizer determinism, archive serialization, parsing, attribution and
// table rendering — must reproduce byte-for-byte; regenerate deliberately
// with `go test -run TestExperimentTablesGolden -update .` after reviewing
// the diff.
func TestExperimentTablesGolden(t *testing.T) {
	ds := smallDataset(t, 2, 6)
	res := analyzeDataset(t, ds)
	for _, c := range []struct {
		name, golden string
		truth        map[uint64]logdiver.Truth
		ids          []string // the tables rendered, in order
	}{
		{"e1e2e3", "experiments_e1e2e3.golden", nil, []string{"E1", "E2", "E3"}},
		{"all", "experiments_all.golden", ds.Truth, []string{
			"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11",
			"E12", "E13", "E14", "E15", "E16", "E17", "A1", "A2", "A3"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tables, err := logdiver.Experiments(res, ds.Topology, c.truth)
			if err != nil {
				t.Fatal(err)
			}
			want := make(map[string]bool, len(c.ids))
			for _, id := range c.ids {
				want[id] = true
			}
			var buf bytes.Buffer
			var rendered []string
			for _, tbl := range tables {
				if !want[tbl.ID] {
					continue
				}
				rendered = append(rendered, tbl.ID)
				fmt.Fprintf(&buf, "== %s: %s ==\n", tbl.ID, tbl.Title)
				if err := tbl.Render(&buf); err != nil {
					t.Fatal(err)
				}
				buf.WriteByte('\n')
				if err := tbl.RenderMarkdown(&buf); err != nil {
					t.Fatal(err)
				}
				buf.WriteByte('\n')
			}
			if strings.Join(rendered, " ") != strings.Join(c.ids, " ") {
				t.Fatalf("rendered tables %v, want %v", rendered, c.ids)
			}
			checkGolden(t, filepath.Join("testdata", c.golden), buf.Bytes())
		})
	}
}

// checkGolden compares got with the golden file, or rewrites the file
// under -update.
func checkGolden(t *testing.T, golden string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
		return
	}
	wantBytes, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, wantBytes) {
		gotLines := strings.Split(string(got), "\n")
		wantLines := strings.Split(string(wantBytes), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("%s mismatch at line %d:\n got  %q\n want %q\n(rerun with -update after reviewing)", golden, i+1, g, w)
			}
		}
		t.Fatalf("%s mismatch (length only)", golden)
	}
}
