package parse

import (
	"strings"
	"testing"
)

// TestModeAndKindTablesExhaustive: the switches over Mode and Kind keep a safe
// default, so each member up to the sentinel must be named, a Mode must read
// back through ModeFromString, and a Kind must count once in KindCounts.
func TestModeAndKindTablesExhaustive(t *testing.T) {
	for m := Lenient; m < numModes; m++ {
		name := m.String()
		if back, err := ModeFromString(name); strings.HasPrefix(name, "Mode(") || err != nil || back != m {
			t.Errorf("ModeFromString(%q) = (%v, %v), want %v", name, back, err, m)
		}
	}
	for k := KindStructure; k < numKinds; k++ {
		if strings.HasPrefix(k.String(), "Kind(") {
			t.Errorf("kind %d has no name", int(k))
		}
		var c, merged KindCounts
		c.Add(k)
		merged.Merge(c)
		if c.Count(k) != 1 || c.Total() != 1 || merged.Count(k) != 1 {
			t.Errorf("kind %v: Add then Count = %d, Total = %d, merged Count = %d; want 1 each",
				k, c.Count(k), c.Total(), merged.Count(k))
		}
	}
}
