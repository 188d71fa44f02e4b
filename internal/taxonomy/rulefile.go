package taxonomy

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"regexp"
	"strings"
	"unicode"
)

// Rule-file format: one rule per line,
//
//	<name> <CATEGORY> <SEVERITY> <regex...>
//
// whitespace-separated; the regex is everything after the third field and
// may contain spaces. Blank lines and lines starting with '#' are skipped.
// Rules apply in file order (first match wins), exactly like the built-in
// set. This lets a deployment extend or replace the taxonomy without
// recompiling — the knob a log-analysis tool must expose, because every
// site's message zoo differs.
//
// Because the first three fields are whitespace-delimited, a rule name must
// not contain whitespace (and must not start with '#', which would turn the
// line into a comment); CheckName holds both the reader and the linter to
// that.

// ParseSeverity resolves a severity mnemonic produced by Severity.String.
func ParseSeverity(s string) (Severity, bool) {
	switch strings.ToUpper(s) {
	case "INFO":
		return SevInfo, true
	case "WARN", "WARNING":
		return SevWarning, true
	case "ERROR":
		return SevError, true
	case "CRIT", "CRITICAL":
		return SevCritical, true
	default:
		return 0, false
	}
}

// ReadRuleFile parses a rule file, keeping the source line of every rule so
// that lint diagnostics can point back into the file. It fails on the first
// malformed line with a line-numbered error.
func ReadRuleFile(r io.Reader) ([]Rule, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var rules []Rule
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Split off exactly three leading fields; the rest is the regex
		// (which may itself contain spaces or the same tokens).
		rest := line
		var head [3]string
		ok := true
		for i := range head {
			rest = strings.TrimLeft(rest, " \t")
			cut := strings.IndexAny(rest, " \t")
			if cut < 0 {
				ok = false
				break
			}
			head[i] = rest[:cut]
			rest = rest[cut:]
		}
		pattern := strings.TrimSpace(rest)
		if !ok || pattern == "" {
			return nil, fmt.Errorf("taxonomy: rule file line %d: want 'name CATEGORY SEVERITY regex', got %q", lineNo, line)
		}
		name := head[0]
		// The field splitter only breaks on space and tab, so a name could
		// still smuggle in other whitespace (\v, \r, U+00A0, ...) that a
		// written rule file could not round-trip; reject it.
		if err := CheckName(name); err != nil {
			return nil, fmt.Errorf("taxonomy: rule file line %d: %w", lineNo, err)
		}
		cat, ok := ParseCategory(head[1])
		if !ok {
			return nil, fmt.Errorf("taxonomy: rule file line %d: unknown category %q", lineNo, head[1])
		}
		sev, ok := ParseSeverity(head[2])
		if !ok {
			return nil, fmt.Errorf("taxonomy: rule file line %d: unknown severity %q", lineNo, head[2])
		}
		re, err := regexp.Compile(pattern)
		if err != nil {
			return nil, fmt.Errorf("taxonomy: rule file line %d: bad regex: %w", lineNo, err)
		}
		rules = append(rules, Rule{Name: name, Pattern: re, Category: cat, Severity: sev, Line: lineNo})
	}
	if err := sc.Err(); errors.Is(err, bufio.ErrTooLong) {
		return nil, fmt.Errorf("taxonomy: rule file line %d: longer than 1 MiB", lineNo+1)
	} else if err != nil {
		return nil, fmt.Errorf("taxonomy: rule file: %w", err)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("taxonomy: rule file contains no rules")
	}
	return rules, nil
}

// CheckName reports why name cannot be used as a rule name in the rule-file
// format, or nil if it can. Whitespace inside a name would shift the
// CATEGORY/SEVERITY/regex fields on a written line; a leading '#' would
// turn the whole line into a comment.
func CheckName(name string) error {
	if name == "" {
		return fmt.Errorf("empty rule name")
	}
	if strings.HasPrefix(name, "#") {
		return fmt.Errorf("rule name %q starts with '#' (the written line would parse as a comment)", name)
	}
	if strings.ContainsFunc(name, unicode.IsSpace) {
		return fmt.Errorf("rule name %q contains whitespace (the rule-file format is whitespace-delimited)", name)
	}
	return nil
}
