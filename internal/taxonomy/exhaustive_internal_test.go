package taxonomy

import (
	"slices"
	"strings"
	"testing"
)

// TestCategoryTablesExhaustive pins the add-a-category checklist: anyone
// inserting a new leaf before numCategories must also extend categoryNames
// (and therefore ParseCategory, which iterates it) and assign the leaf to a
// top-level group. The tests below do the same for Severity and Group: every
// switch over these enums keeps a safe default, so a member a table forgets
// fails here rather than nowhere.
func TestCategoryTablesExhaustive(t *testing.T) {
	if len(categoryNames) != int(numCategories) {
		t.Errorf("categoryNames has %d entries, want %d (one per category incl. Unclassified)",
			len(categoryNames), int(numCategories))
	}
	seen := make(map[string]Category, int(numCategories))
	for c := Unclassified; c < numCategories; c++ {
		s := c.String()
		if strings.HasPrefix(s, "CATEGORY(") {
			t.Errorf("category %d has no name in categoryNames", int(c))
			continue
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("categories %d and %d share the name %q", int(prev), int(c), s)
		}
		seen[s] = c
		back, ok := ParseCategory(s)
		if !ok || back != c {
			t.Errorf("ParseCategory(%q) = (%v,%v), want (%v,true)", s, back, ok, c)
		}
		if c != Unclassified && c.Group() == GroupUnknown {
			t.Errorf("category %v is not assigned to a top-level group", c)
		}
	}
	if _, ok := ParseCategory("CATEGORY(1)"); ok {
		t.Error("ParseCategory accepted the fallback rendering")
	}
}

// TestSeverityTablesExhaustive is the same guarantee for Severity: every
// member up to numSeverities has a mnemonic that ParseSeverity reads back.
func TestSeverityTablesExhaustive(t *testing.T) {
	for s := SevInfo; s < numSeverities; s++ {
		name := s.String()
		if strings.HasPrefix(name, "SEVERITY(") {
			t.Errorf("severity %d has no mnemonic", int(s))
			continue
		}
		back, ok := ParseSeverity(name)
		if !ok || back != s {
			t.Errorf("ParseSeverity(%q) = (%v,%v), want (%v,true)", name, back, ok, s)
		}
	}
}

// TestGroupTablesExhaustive: every group up to numGroups has a name, Groups
// lists every group but GroupUnknown in declaration order, and each listed
// group holds at least one category.
func TestGroupTablesExhaustive(t *testing.T) {
	var want []Group
	for g := GroupUnknown; g < numGroups; g++ {
		if strings.HasPrefix(g.String(), "GROUP(") {
			t.Errorf("group %d has no name in groupNames", int(g))
		}
		if g != GroupUnknown {
			want = append(want, g)
		}
	}
	if got := Groups(); !slices.Equal(got, want) {
		t.Errorf("Groups() = %v, want %v", got, want)
	}
	for _, g := range want {
		if !slices.ContainsFunc(Categories(), func(c Category) bool { return c.Group() == g }) {
			t.Errorf("group %v has no category", g)
		}
	}
}
