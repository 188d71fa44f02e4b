package ldvet

import (
	"go/token"
	"sort"
)

// Suppress audits //ldvet:allow suppression markers. A suppression that no
// analyzer consulted is stale: either the code it excused was fixed or
// moved (so the marker now silences nothing and will hide the next real
// finding on that line), or its token is misspelled and it never worked at
// all. Mirroring staticcheck's //lint:ignore check, both conditions are
// diagnostics:
//
//   - an unknown token is always an error (the marker cannot work);
//   - an unused known token is reported when its owning analyzer ran, so a
//     partial `ldvet -run`-style invocation does not flag markers whose
//     analyzer simply was not asked to run.
//
// The audit itself runs as an epilogue inside Run after the real analyzers
// have recorded which markers they matched; this Analyzer value only
// registers the check (and its documentation) in the driver.
var Suppress = &Analyzer{
	Name: "suppress",
	Doc: "flag stale //ldvet:allow markers that no analyzer consulted, and\n" +
		"markers whose token names no known check",
}

// allowOwner maps each valid //ldvet:allow token to the analyzer that
// consults it. New suppressible analyzers must register their token here or
// every use of it is reported as unknown.
var allowOwner = map[string]string{
	"regexp-compile": RegexpCompile.Name,
	"hotpath-alloc":  Hotalloc.Name,
}

// auditSuppressions reports stale and unknown //ldvet:allow markers in one
// package. ran is the set of analyzer names in this run; state.used holds
// the comments analyzers matched while running over this package.
func auditSuppressions(fset *token.FileSet, pkg *Package, state *runState, ran map[string]bool, report func(Diagnostic)) {
	var diags []Diagnostic
	for _, file := range pkg.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				tok, ok := allowToken(c.Text)
				if !ok {
					continue
				}
				owner, known := allowOwner[tok]
				switch {
				case !known:
					diags = append(diags, Diagnostic{
						Analyzer: Suppress.Name,
						Pos:      fset.Position(c.Slash),
						Message: "//ldvet:allow " + tok +
							" names no known check; valid tokens: " + allowTokenList(),
					})
				case ran[owner] && !state.used[c]:
					diags = append(diags, Diagnostic{
						Analyzer: Suppress.Name,
						Pos:      fset.Position(c.Slash),
						Message: "unused suppression: no " + owner +
							" diagnostic on this line needs //ldvet:allow " + tok + "; remove the stale marker",
					})
				}
			}
		}
	}
	for _, d := range diags {
		report(d)
	}
}

// allowTokenList renders the valid tokens, sorted, for diagnostics.
func allowTokenList() string {
	toks := make([]string, 0, len(allowOwner))
	for t := range allowOwner {
		toks = append(toks, t)
	}
	sort.Strings(toks)
	s := ""
	for i, t := range toks {
		if i > 0 {
			s += ", "
		}
		s += t
	}
	return s
}
