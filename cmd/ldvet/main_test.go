package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestModuleClean is the CI gate in test form: ldvet over the whole module
// must exit 0 with no output.
func TestModuleClean(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"./..."}, &out, &errOut); code != 0 {
		t.Fatalf("ldvet ./... exited %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if out.Len() > 0 {
		t.Errorf("unexpected diagnostics:\n%s", out.String())
	}
}

// TestSeededFindings points the driver at the analyzer testdata, which
// contains deliberately non-exhaustive switches and per-call compiles, and
// checks the exit status and JSON shape.
func TestSeededFindings(t *testing.T) {
	for dir, analyzer := range map[string]string{
		"../../internal/ldvet/testdata/src/exhaustive":    "exhaustive",
		"../../internal/ldvet/testdata/src/regexpcompile": "regexpcompile",
		"../../internal/ldvet/testdata/src/hotalloc":      "hotalloc",
	} {
		var out, errOut strings.Builder
		code := run([]string{"-json", dir}, &out, &errOut)
		if code != 1 {
			t.Fatalf("ldvet %s exited %d, want 1\nstderr:\n%s", dir, code, errOut.String())
		}
		var diags []struct {
			Analyzer string `json:"analyzer"`
			Message  string `json:"message"`
			File     string `json:"file"`
			Line     int    `json:"line"`
		}
		if err := json.Unmarshal([]byte(out.String()), &diags); err != nil {
			t.Fatalf("ldvet %s produced invalid JSON: %v\n%s", dir, err, out.String())
		}
		if len(diags) == 0 {
			t.Fatalf("ldvet %s produced no diagnostics", dir)
		}
		named := false
		for _, d := range diags {
			if d.File == "" || d.Line == 0 || d.Message == "" {
				t.Errorf("incomplete diagnostic: %+v", d)
			}
			if d.Analyzer == analyzer {
				named = true
			}
		}
		if !named {
			t.Errorf("ldvet %s reported no %s diagnostic:\n%s", dir, analyzer, out.String())
		}
	}
}

// TestJSONCleanIsEmptyArray pins the machine-readable contract: a clean run
// under -json prints an empty JSON array, never null, so `jq length` and
// similar consumers need no null guard.
func TestJSONCleanIsEmptyArray(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-json", "../../internal/machine"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, want 0\nstderr:\n%s", code, errOut.String())
	}
	if got := strings.TrimSpace(out.String()); got != "[]" {
		t.Errorf("clean -json output = %q, want []", got)
	}
}

// TestNonExhaustiveCategorySwitchFlagged pins the headline acceptance
// criterion: a switch over a Category-shaped enum missing a member is
// reported by name.
func TestNonExhaustiveCategorySwitchFlagged(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"../../internal/ldvet/testdata/src/exhaustive"}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1\nstderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "missing NodeRecovered") {
		t.Errorf("diagnostic does not name the missing member:\n%s", out.String())
	}
}

func TestOutsideModuleRejected(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"/"}, &out, &errOut); code != 2 {
		t.Fatalf("ldvet / exited %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "outside module") {
		t.Errorf("missing outside-module error, got: %s", errOut.String())
	}
}

func TestAnalyzersList(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-analyzers"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	want := []string{"exhaustive", "hotalloc", "packagedoc", "regexpcompile", "suppress"}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if name, _, ok := strings.Cut(line, "\t"); ok {
			got = append(got, name)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("analyzers listed = %q, want %q\n%s", got, want, out.String())
	}
}
