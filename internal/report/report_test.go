package report

import (
	"strings"
	"testing"
)

func sample() *Table {
	t := &Table{
		ID:      "E2",
		Title:   "Outcome breakdown",
		Columns: []string{"outcome", "runs", "share"},
		Notes:   []string{"anchor: 1.53%"},
	}
	t.AddRow("SUCCESS", 100, Pct(0.75))
	t.AddRow("SYSTEM", 2, Pct(0.0153))
	return t
}

func TestRenderASCII(t *testing.T) {
	var b strings.Builder
	if err := sample().Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"E2", "Outcome breakdown", "SUCCESS", "1.53%", "note: anchor"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header + separator + 2 rows + 1 note + title line.
	if len(lines) != 6 {
		t.Errorf("got %d lines, want 6:\n%s", len(lines), out)
	}
}

func TestRenderCSV(t *testing.T) {
	var b strings.Builder
	if err := sample().RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d csv lines", len(lines))
	}
	if lines[0] != "outcome,runs,share" {
		t.Errorf("header = %q", lines[0])
	}
}

func TestCSVEscaping(t *testing.T) {
	tbl := &Table{ID: "X", Title: "t", Columns: []string{"a"}}
	tbl.AddRow(`va"l,ue`)
	var b strings.Builder
	if err := tbl.RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"va""l,ue"`) {
		t.Errorf("bad escaping: %q", b.String())
	}
}

func TestRenderMarkdown(t *testing.T) {
	var b strings.Builder
	if err := sample().RenderMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "| outcome | runs | share |") {
		t.Errorf("missing header row:\n%s", out)
	}
	if !strings.Contains(out, "|---|---|---|") {
		t.Errorf("missing separator:\n%s", out)
	}
}

func TestMarkdownEscapesPipes(t *testing.T) {
	tbl := &Table{ID: "X", Title: "t", Columns: []string{"a"}}
	tbl.AddRow("x|y")
	var b strings.Builder
	if err := tbl.RenderMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `x\|y`) {
		t.Errorf("pipe not escaped: %q", b.String())
	}
}

func TestValidate(t *testing.T) {
	bad := &Table{ID: "", Title: "t", Columns: []string{"a"}}
	if err := bad.Validate(); err == nil {
		t.Error("empty ID accepted")
	}
	bad2 := &Table{ID: "X", Title: "t"}
	if err := bad2.Validate(); err == nil {
		t.Error("no columns accepted")
	}
	bad3 := &Table{ID: "X", Title: "t", Columns: []string{"a", "b"}}
	bad3.AddRow("only one")
	if err := bad3.Validate(); err == nil {
		t.Error("ragged row accepted")
	}
	var b strings.Builder
	if err := bad3.Render(&b); err == nil {
		t.Error("Render of invalid table succeeded")
	}
	if err := bad3.RenderCSV(&b); err == nil {
		t.Error("RenderCSV of invalid table succeeded")
	}
	if err := bad3.RenderMarkdown(&b); err == nil {
		t.Error("RenderMarkdown of invalid table succeeded")
	}
}

// TestWrite pins each CLI format as its renderer plus the framing between
// tables, and rejects an unknown format before writing anything.
func TestWrite(t *testing.T) {
	one, two := sample(), sample()
	two.ID = "E3"
	framed := func(frame func(*Table, *strings.Builder) error) string {
		var b strings.Builder
		for _, tbl := range []*Table{one, two} {
			if err := frame(tbl, &b); err != nil {
				t.Fatal(err)
			}
		}
		return b.String()
	}
	for format, want := range map[string]string{
		"ascii": framed(func(tbl *Table, b *strings.Builder) error { err := tbl.Render(b); b.WriteString("\n"); return err }),
		"md":    framed(func(tbl *Table, b *strings.Builder) error { return tbl.RenderMarkdown(b) }),
		"csv": framed(func(tbl *Table, b *strings.Builder) error {
			b.WriteString("# " + tbl.ID + ": " + tbl.Title + "\n")
			return tbl.RenderCSV(b)
		}),
	} {
		var b strings.Builder
		if err := Write(&b, format, []*Table{one, two}); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if b.String() != want {
			t.Errorf("%s:\n%s\nwant:\n%s", format, b.String(), want)
		}
	}
	var b strings.Builder
	if err := Write(&b, "xml", []*Table{one}); err == nil || b.Len() != 0 {
		t.Errorf("unknown format: err %v, wrote %q", err, b.String())
	}
}

func TestCount(t *testing.T) {
	tests := []struct {
		give int
		want string
	}{
		{0, "0"},
		{999, "999"},
		{1000, "1,000"},
		{1234567, "1,234,567"},
		{-42, "-42"},
		{-1234, "-1,234"},
		{100, "100"},
		{1000000, "1,000,000"},
	}
	for _, tt := range tests {
		if got := Count(tt.give); got != tt.want {
			t.Errorf("Count(%d) = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestFmtHelpers(t *testing.T) {
	if got := Pct(0.0153); got != "1.53%" {
		t.Errorf("Pct = %q", got)
	}
	if got := F3(1.23456); got != "1.235" {
		t.Errorf("F3 = %q", got)
	}
	if got := F1(1.26); got != "1.3" {
		t.Errorf("F1 = %q", got)
	}
}
