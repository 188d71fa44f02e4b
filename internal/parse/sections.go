package parse

import (
	"fmt"
	"slices"
	"strings"
)

// NameMax bounds a section name; names appear in URLs, metrics labels,
// file paths, tables and cache keys.
const NameMax = 64

// ValidName reports whether name is a valid section name: letters, digits,
// dot, underscore and dash, at most NameMax bytes, and not "." or "..", so
// it is safe as a query parameter, a metrics label value and a path
// component.
func ValidName(name string) bool {
	if name == "" || len(name) > NameMax {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.' || r == '_' || r == '-':
		default:
			return false
		}
	}
	return name != "." && name != ".."
}

// Section is one [KIND NAME] section of a section config, with its
// key/value lines in file order.
type Section struct {
	Name string
	Line int // of the header
	Keys []KeyValue
}

// KeyValue is one "key = value" line, both sides trimmed.
type KeyValue struct {
	Key, Value string
	Line       int
}

// Sections parses the section config format of fleet configs and what-if
// policy files:
//
//	# comment (also ';')
//	[KIND NAME]
//	key = value
//
// Every section header names kind; names must be ValidName and unique, and a
// key may appear once per section. Errors start with prefix, and name the
// line when one line is at fault; a text with no section is an error naming
// plural ("no shards"). What the keys mean is the caller's.
func Sections(text, prefix, kind, plural string) ([]Section, error) {
	var secs []Section
	for no, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, ";") {
			continue
		}
		if strings.HasPrefix(line, "[") {
			if !strings.HasSuffix(line, "]") {
				return nil, fmt.Errorf("%s: line %d: unterminated section header %q", prefix, no+1, line)
			}
			section := strings.TrimSpace(line[1 : len(line)-1])
			name, ok := strings.CutPrefix(section, kind+" ")
			if !ok {
				return nil, fmt.Errorf("%s: line %d: unknown section %q (want [%s NAME])", prefix, no+1, section, kind)
			}
			name = strings.TrimSpace(name)
			if !ValidName(name) {
				return nil, fmt.Errorf("%s: line %d: invalid %s name %q (letters, digits, dot, underscore, dash; max %d chars)", prefix, no+1, kind, name, NameMax)
			}
			if slices.ContainsFunc(secs, func(s Section) bool { return s.Name == name }) {
				return nil, fmt.Errorf("%s: duplicate %s name %q", prefix, kind, name)
			}
			secs = append(secs, Section{Name: name, Line: no + 1})
			continue
		}
		key, value, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("%s: line %d: expected key = value, got %q", prefix, no+1, line)
		}
		if len(secs) == 0 {
			return nil, fmt.Errorf("%s: line %d: key outside a [%s NAME] section", prefix, no+1, kind)
		}
		cur := &secs[len(secs)-1]
		key = strings.TrimSpace(key)
		if slices.ContainsFunc(cur.Keys, func(kv KeyValue) bool { return kv.Key == key }) {
			return nil, fmt.Errorf("%s: line %d: duplicate key %q in %s %q", prefix, no+1, key, kind, cur.Name)
		}
		cur.Keys = append(cur.Keys, KeyValue{Key: key, Value: strings.TrimSpace(value), Line: no + 1})
	}
	if len(secs) == 0 {
		return nil, fmt.Errorf("%s: config declares no %s", prefix, plural)
	}
	return secs, nil
}
