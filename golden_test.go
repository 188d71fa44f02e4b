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

// TestExperimentTablesGolden pins the rendered E1-E3 report tables from a
// full text-archive analysis against a golden file. The whole chain —
// synthesizer determinism, archive serialization, parsing, attribution and
// table rendering — must reproduce byte-for-byte; regenerate deliberately
// with `go test -run TestExperimentTablesGolden -update .` after reviewing
// the diff.
func TestExperimentTablesGolden(t *testing.T) {
	ds := smallDataset(t, 2, 6)
	res := analyzeDataset(t, ds)
	tables, err := logdiver.Experiments(res, ds.Topology, nil)
	if err != nil {
		t.Fatal(err)
	}

	want := map[string]bool{"E1": true, "E2": true, "E3": true}
	var buf bytes.Buffer
	var rendered int
	for _, tbl := range tables {
		if !want[tbl.ID] {
			continue
		}
		rendered++
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
	if rendered != len(want) {
		t.Fatalf("rendered %d of %d expected tables", rendered, len(want))
	}

	golden := filepath.Join("testdata", "experiments_e1e2e3.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, buf.Len())
		return
	}
	wantBytes, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), wantBytes) {
		gotLines := strings.Split(buf.String(), "\n")
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
				t.Fatalf("golden mismatch at line %d:\n got  %q\n want %q\n(rerun with -update after reviewing)", i+1, g, w)
			}
		}
		t.Fatal("golden mismatch (length only)")
	}
}
