// Package report renders experiment results as aligned ASCII tables and CSV,
// the formats the experiment harness and CLI print. A Table is deliberately
// dumb — strings only — so every experiment controls its own numeric
// formatting.
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is one rendered experiment artifact (a paper table or the data
// series behind a figure).
type Table struct {
	// ID is the experiment identifier ("E4"), Title the human caption.
	ID    string
	Title string
	// Columns are the header cells; every row must have the same arity.
	Columns []string
	Rows    [][]string
	// Notes are free-form footnotes (anchors, caveats, parameters).
	Notes []string
}

// AddRow appends a row, formatting each cell with fmt.Sprint.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.Rows = append(t.Rows, row)
}

// Validate checks structural consistency.
func (t *Table) Validate() error {
	if t.ID == "" || t.Title == "" {
		return fmt.Errorf("report: table needs ID and Title")
	}
	if len(t.Columns) == 0 {
		return fmt.Errorf("report: table %s has no columns", t.ID)
	}
	for i, r := range t.Rows {
		if len(r) != len(t.Columns) {
			return fmt.Errorf("report: table %s row %d has %d cells, want %d", t.ID, i, len(r), len(t.Columns))
		}
	}
	return nil
}

// Render writes the table as aligned ASCII.
func (t *Table) Render(w io.Writer) error {
	if err := t.Validate(); err != nil {
		return err
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, cell := range r {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	b.Grow(256)
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := len(widths) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// csvEscape quotes a cell when needed per RFC 4180.
func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// RenderCSV writes the table as CSV (header row first; notes omitted).
func (t *Table) RenderCSV(w io.Writer) error {
	if err := t.Validate(); err != nil {
		return err
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(csvEscape(cell))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, r := range t.Rows {
		writeRow(r)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderMarkdown writes the table as a GitHub-flavoured markdown table.
func (t *Table) RenderMarkdown(w io.Writer) error {
	if err := t.Validate(); err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "### %s: %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, r := range t.Rows {
		escaped := make([]string, len(r))
		for i, cell := range r {
			escaped[i] = strings.ReplaceAll(cell, "|", "\\|")
		}
		b.WriteString("| " + strings.Join(escaped, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// Write renders tables one after another in a CLI output format: "ascii"
// (Render, then a blank line), "md" (RenderMarkdown) or "csv" (RenderCSV
// under a "# <ID>: <Title>" line).
func Write(w io.Writer, format string, tables []*Table) error {
	if format != "ascii" && format != "md" && format != "csv" {
		return fmt.Errorf("unknown format %q", format)
	}
	for _, t := range tables {
		var err error
		switch format {
		case "ascii":
			if err = t.Render(w); err == nil {
				_, err = io.WriteString(w, "\n")
			}
		case "md":
			err = t.RenderMarkdown(w)
		case "csv":
			if _, err = fmt.Fprintf(w, "# %s: %s\n", t.ID, t.Title); err == nil {
				err = t.RenderCSV(w)
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Fmt helpers shared by the experiments.

// Pct formats a ratio as a percentage with two decimals.
func Pct(x float64) string { return fmt.Sprintf("%.2f%%", 100*x) }

// F3 formats with three decimals.
func F3(x float64) string { return fmt.Sprintf("%.3f", x) }

// F1 formats with one decimal.
func F1(x float64) string { return fmt.Sprintf("%.1f", x) }

// Count formats an integer with thousands separators.
func Count(n int) string {
	s := fmt.Sprintf("%d", n)
	if len(s) <= 3 || (s[0] == '-' && len(s) <= 4) {
		return s
	}
	var b strings.Builder
	start := 0
	if s[0] == '-' {
		b.WriteByte('-')
		start = 1
	}
	digits := s[start:]
	lead := len(digits) % 3
	if lead > 0 {
		b.WriteString(digits[:lead])
		if len(digits) > lead {
			b.WriteByte(',')
		}
	}
	for i := lead; i < len(digits); i += 3 {
		b.WriteString(digits[i : i+3])
		if i+3 < len(digits) {
			b.WriteByte(',')
		}
	}
	return b.String()
}
