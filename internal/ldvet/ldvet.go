// Package ldvet implements logdiver's custom static analyzers and the
// small driver framework they run on. The analyzers protect the taxonomy
// hot path against two recurring bug classes:
//
//   - exhaustive: a switch over an enum-like type (taxonomy.Category,
//     taxonomy.Severity, ...) that silently misses members. Adding a
//     category before the numCategories sentinel and forgetting one switch
//     reclassifies events without any compile error; this analyzer makes
//     that a lint failure. Switches with a default clause are considered
//     intentionally partial unless annotated //ldvet:exhaustive.
//   - regexpcompile: regexp.MustCompile calls inside function bodies, which
//     recompile the pattern on every call. On the message-classification
//     hot path a stray per-call compile dominates the profile; patterns
//     belong in package-level var blocks. Intentional call-site compiles
//     are annotated //ldvet:allow regexp-compile.
//   - packagedoc: packages without a package doc comment. The repo's
//     documentation (DESIGN.md module table, OPERATIONS.md) leans on godoc
//     staying truthful; a package that never introduces itself is where
//     that contract starts to rot.
//
// The framework mirrors the golang.org/x/tools/go/analysis API surface
// (Analyzer, Pass, Diagnostic, a multichecker driver in cmd/ldvet, and a
// want-comment test harness) but is built purely on the standard library's
// go/ast, go/types and go/importer: this module is dependency-free and must
// build in hermetic environments with no module proxy, so vendoring x/tools
// is not an option. If the module ever grows a dependency budget, the
// analyzers port to x/tools analyzers nearly mechanically.
package ldvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one static check. It mirrors analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters.
	Name string
	// Doc is the one-paragraph description printed by cmd/ldvet -help.
	Doc string
	// Run inspects one type-checked package and reports findings via the
	// pass.
	Run func(*Pass)
}

// Pass carries one (package, analyzer) execution. It mirrors
// analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package

	state  *runState
	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Allowed reports whether a //ldvet:allow <what> suppression comment covers
// pos (same line or the line directly above), and records the suppression
// as used so the suppress audit does not flag it as stale.
func (p *Pass) Allowed(file *ast.File, pos token.Pos, what string) bool {
	line := p.Fset.Position(pos).Line
	for _, group := range file.Comments {
		for _, c := range group.List {
			tok, ok := allowToken(c.Text)
			if !ok || tok != what {
				continue
			}
			cl := p.Fset.Position(c.Slash).Line
			if cl == line || cl == line-1 {
				if p.state != nil {
					p.state.used[c] = true
				}
				return true
			}
		}
	}
	return false
}

// runState is shared by every Pass of one Run invocation. It records which
// suppression comments were actually consulted, so the suppress audit can
// flag the stale ones.
type runState struct {
	used map[*ast.Comment]bool
}

// allowToken extracts the suppression token from a //ldvet:allow comment:
// the first whitespace-delimited word after the marker ("regexp-compile" in
// "//ldvet:allow regexp-compile — rationale"). Like //go: directives, the
// marker must start the comment — a prose mention of the syntax elsewhere
// in a comment is not a suppression. ok is false for comments that are not
// allow markers at all.
func allowToken(text string) (tok string, ok bool) {
	rest, found := strings.CutPrefix(text, "//ldvet:allow")
	if !found {
		return "", false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", true // bare "//ldvet:allow": an allow marker with no token
	}
	return fields[0], true
}

// Diagnostic is one finding, with a resolved file position.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	Message  string         `json:"message"`

	// File/Line/Column duplicate Pos for JSON output.
	File   string `json:"file"`
	Line   int    `json:"line"`
	Column int    `json:"column"`
}

// String renders the diagnostic in the canonical file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Run executes the analyzers over the packages (all loaded by l, whose
// FileSet resolves every position) and returns all diagnostics sorted by
// position. When the Suppress analyzer is among the analyzers, each package
// is additionally audited for stale or unknown //ldvet:allow markers after
// the real analyzers have consulted them.
func Run(l *Loader, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	fset := l.Fset()
	var diags []Diagnostic
	state := &runState{used: make(map[*ast.Comment]bool)}
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     fset,
				Pkg:      pkg,
				state:    state,
				report:   report,
			}
			a.Run(pass)
		}
		if ran[Suppress.Name] {
			auditSuppressions(fset, pkg, state, ran, report)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	for i := range diags {
		diags[i].File = diags[i].Pos.Filename
		diags[i].Line = diags[i].Pos.Line
		diags[i].Column = diags[i].Pos.Column
	}
	return diags
}

// Analyzers returns all analyzers the multichecker runs.
func Analyzers() []*Analyzer {
	return []*Analyzer{Exhaustive, Hotalloc, PackageDoc, RegexpCompile, Suppress}
}

// hasMarker reports whether a //ldvet:... marker comment containing the
// given text sits on the same line as pos or on the line directly above it
// — the two placements gofmt preserves for statement annotations.
func hasMarker(fset *token.FileSet, file *ast.File, pos token.Pos, marker string) bool {
	line := fset.Position(pos).Line
	for _, group := range file.Comments {
		for _, c := range group.List {
			if !strings.Contains(c.Text, marker) {
				continue
			}
			cl := fset.Position(c.Slash).Line
			if cl == line || cl == line-1 {
				return true
			}
		}
	}
	return false
}

// funcHasMarker reports whether fd carries the marker in its doc comment or
// on the line directly above the declaration.
func funcHasMarker(fset *token.FileSet, file *ast.File, fd *ast.FuncDecl, marker string) bool {
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			if strings.Contains(c.Text, marker) {
				return true
			}
		}
	}
	return hasMarker(fset, file, fd.Pos(), marker)
}
