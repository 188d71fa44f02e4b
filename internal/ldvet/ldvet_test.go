package ldvet_test

import (
	"path/filepath"
	"strings"
	"testing"

	"logdiver/internal/ldvet"
)

// checkWants runs one analyzer over a testdata package and fails the test
// with every want mismatch.
func checkWants(t *testing.T, pkg string, analyzers ...*ldvet.Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", pkg)
	errs, err := ldvet.CheckWants(dir, analyzers...)
	if err != nil {
		t.Fatalf("CheckWants(%s): %v", dir, err)
	}
	for _, e := range errs {
		t.Errorf("%s", e)
	}
}

func TestExhaustive(t *testing.T) {
	checkWants(t, "exhaustive", ldvet.Exhaustive)
}

func TestRegexpCompile(t *testing.T) {
	checkWants(t, "regexpcompile", ldvet.RegexpCompile)
}

func TestHotalloc(t *testing.T) {
	checkWants(t, "hotalloc", ldvet.Hotalloc)
}

// TestSuppressAudit runs a real analyzer plus the suppress audit: a marker
// the analyzer consulted stays silent, a stale marker and an unknown token
// are reported.
func TestSuppressAudit(t *testing.T) {
	checkWants(t, "unusedsuppress", ldvet.RegexpCompile, ldvet.Suppress)
}

func TestPackageDoc(t *testing.T) {
	// A directive-only comment above a package clause does not count as
	// documentation; the diagnostic fires once, on the first file.
	checkWants(t, "packagedoc", ldvet.PackageDoc)
	// One documented file covers the whole package.
	checkWants(t, "packagedocok", ldvet.PackageDoc)
}

// TestRepoClean runs the full analyzer suite over this repository and
// requires zero diagnostics — the same invariant the CI lint job enforces
// via cmd/ldvet. If this fails after adding a switch or a MustCompile call,
// either fix the site or annotate it (see the package doc).
func TestRepoClean(t *testing.T) {
	root, path, err := ldvet.FindModule(".")
	if err != nil {
		t.Fatalf("FindModule: %v", err)
	}
	l := ldvet.NewLoader(root, path)
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	if len(pkgs) < 5 {
		t.Fatalf("LoadAll found only %d packages, expected the whole module", len(pkgs))
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			t.Errorf("type error in %s: %v", p.Path, terr)
		}
	}
	diags := ldvet.Run(l, pkgs, ldvet.Analyzers())
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// TestFindModule pins the module identity so loader-path regressions show
// up as a readable failure rather than import errors downstream.
func TestFindModule(t *testing.T) {
	root, path, err := ldvet.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	if path != "logdiver" {
		t.Errorf("module path = %q, want logdiver", path)
	}
	if !strings.HasSuffix(filepath.ToSlash(root), "repo") && root == "" {
		t.Errorf("suspicious module root %q", root)
	}
}
