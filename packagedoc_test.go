package logdiver_test

import (
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryPackageDocumented: every directory with buildable Go files
// (testdata, vendor, dot and underscore directories skipped) has a package
// doc comment in one of its non-test files. A directive (//go:build ...)
// documents nothing.
func TestEveryPackageDocumented(t *testing.T) {
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != "." && (name == "testdata" || name == "vendor" || name[0] == '.' || name[0] == '_') {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			return nil // no buildable Go files here
		}
		for _, file := range pkg.GoFiles {
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, file), nil, parser.PackageClauseOnly|parser.ParseComments)
			if err != nil || strings.TrimSpace(f.Doc.Text()) != "" {
				return err
			}
		}
		t.Errorf("package %s in %s has no package doc comment", pkg.Name, dir)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
