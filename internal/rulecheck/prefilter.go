package rulecheck

import (
	"strconv"
	"strings"

	"logdiver/internal/taxonomy"
)

// checkHotPath reports, as "regexp-on-hot-path", each rule whose regexp
// still runs during classification because the extractor could not make its
// literal filter (internal/taxonomy) exact: the per-line path then pays for
// that regexp. Whether the filters agree with their regexps is not a lint
// finding but a property of the extractor, pinned by taxonomy's tests.
func checkHotPath(rules []taxonomy.Rule, add func(Finding)) {
	for i, r := range rules {
		branches, exact := taxonomy.LiteralFilter(r.Pattern.String())
		if exact {
			continue
		}
		add(Finding{
			Check: "regexp-on-hot-path", Severity: Warn,
			Rule: r.Name, Index: i, Line: r.Line,
			Message: "regexp runs on " + admitted(branches) + " that no earlier rule decided; only a (?i) pattern built from" +
				" literals, .* gaps, alternations, x? and small punctuation classes is decided by the literal scan alone",
		})
	}
}

// admitted describes the messages a non-exact filter lets through to the
// regexp: all of them without a filter, else those containing every literal
// of some branch.
func admitted(branches [][]string) string {
	if branches == nil {
		return "every message"
	}
	var alts []string
	for _, br := range branches {
		for i, l := range br {
			br[i] = strconv.Quote(l)
		}
		alts = append(alts, strings.Join(br, " and "))
	}
	return "every message containing " + strings.Join(alts, ", or ")
}
