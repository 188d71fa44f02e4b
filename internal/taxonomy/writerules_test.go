package taxonomy

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// WriteRules renders rules in the rule-file format, one per line. No product
// code writes rule files: it is the round-trip oracle of ReadRuleFile in
// FuzzReadRules and the property tests, and it renders whole rule sets as
// FuzzClassifyBytes seeds. It is visible to this package's external tests.
//
// It guarantees the output parses back to the same rules: names that cannot
// survive the round trip (whitespace, leading '#'), nil or empty patterns,
// and patterns containing a newline are rejected with an error instead of
// being written corrupted. Use a '\n' escape inside the pattern where a
// literal newline is meant.
func WriteRules(w io.Writer, rules []Rule) error {
	bw := bufio.NewWriter(w)
	for i, r := range rules {
		name := r.Name
		if name == "" {
			name = "unnamed"
		}
		if err := CheckName(name); err != nil {
			return fmt.Errorf("taxonomy: rule %d: %w", i, err)
		}
		if r.Pattern == nil {
			return fmt.Errorf("taxonomy: rule %d (%s): nil pattern", i, name)
		}
		pat := r.Pattern.String()
		if pat == "" {
			return fmt.Errorf("taxonomy: rule %d (%s): empty pattern cannot be written (and would match every message)", i, name)
		}
		// Interior '\r' survives the line scanner; only '\n' breaks the
		// one-rule-per-line invariant (edge whitespace, including '\r', is
		// caught by the TrimSpace check below).
		if strings.Contains(pat, "\n") {
			return fmt.Errorf("taxonomy: rule %d (%s): pattern contains a literal newline; use a \\n escape", i, name)
		}
		if pat != strings.TrimSpace(pat) {
			return fmt.Errorf("taxonomy: rule %d (%s): pattern has leading/trailing whitespace, which the rule-file parser strips; use [ ] or \\s", i, name)
		}
		if _, err := fmt.Fprintf(bw, "%s %s %s %s\n",
			name, r.Category, r.Severity, pat); err != nil {
			return err
		}
	}
	return bw.Flush()
}
