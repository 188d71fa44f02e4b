package gen

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteDirAndAppendDir: AppendDir grows each of the four files by
// exactly what WriteDir writes, and WriteDir over a grown directory starts
// every file afresh.
func TestWriteDirAndAppendDir(t *testing.T) {
	ds := generateTest(t, 1)
	once, grown := t.TempDir(), filepath.Join(t.TempDir(), "new")
	if err := ds.WriteDir(once); err != nil {
		t.Fatal(err)
	}
	if err := ds.AppendDir(grown); err != nil { // creates the missing directory
		t.Fatal(err)
	}
	if err := ds.AppendDir(grown); err != nil {
		t.Fatal(err)
	}
	read := func(dir string) map[string]string {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string]string{}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = string(b)
		}
		return files
	}
	want := read(once)
	if len(want) != 4 || want[TruthFile] == "" {
		t.Fatalf("WriteDir wrote %d files (truth %d bytes), want 4", len(want), len(want[TruthFile]))
	}
	for name, got := range read(grown) {
		if got != strings.Repeat(want[name], 2) {
			t.Errorf("%s after two appends: %d bytes, want twice the %d written once", name, len(got), len(want[name]))
		}
	}
	if err := ds.WriteDir(grown); err != nil {
		t.Fatal(err)
	}
	for name, got := range read(grown) {
		if got != want[name] {
			t.Errorf("%s after WriteDir over a grown directory: %d bytes, want %d", name, len(got), len(want[name]))
		}
	}
}
