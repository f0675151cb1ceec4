// Package tableio renders experiment series as aligned ASCII tables and
// CSV. The benchmark harness reports every paper figure as a table (the
// output medium is text), so this package is the terminal-facing half of
// the evaluation pipeline.
package tableio

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is a simple column-oriented table: one header per column and a
// list of rows of equal width.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// New creates an empty table with the given title and column headers.
func New(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row. It panics if the width differs from the headers —
// that is a programming error in the harness, not a data condition.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Headers) {
		panic(fmt.Sprintf("tableio: row has %d cells, table has %d columns",
			len(cells), len(t.Headers)))
	}
	t.Rows = append(t.Rows, cells)
}

// WriteASCII renders the table with aligned columns to w.
func (t *Table) WriteASCII(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			for pad := len(cell); pad < widths[i]; pad++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the table as RFC-4180-ish CSV (quoting cells that
// contain commas, quotes or newlines) to w. The title is not emitted.
func (t *Table) WriteCSV(w io.Writer) error {
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
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func csvEscape(cell string) string {
	if !strings.ContainsAny(cell, ",\"\n") {
		return cell
	}
	return `"` + strings.ReplaceAll(cell, `"`, `""`) + `"`
}

// String renders the ASCII form.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.WriteASCII(&b)
	return b.String()
}

// FormatFloat renders a float compactly: integers without a decimal
// point, otherwise with the given precision.
func FormatFloat(v float64, prec int) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', prec, 64)
}
