package metrics

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-aligned report table: one row per benchmark (or
// parameter value), one column per configuration (or bucket). It renders to
// plain text for the harness output and EXPERIMENTS.md.
type Table struct {
	Title    string
	RowLabel string
	Columns  []string
	rows     []tableRow
}

type tableRow struct {
	label  string
	values []float64
}

// NewTable creates a table titled title whose first column is labelled
// rowLabel and whose value columns are cols.
func NewTable(title, rowLabel string, cols ...string) *Table {
	return &Table{Title: title, RowLabel: rowLabel, Columns: cols}
}

// AddRow appends a row; the number of values must match the columns.
func (t *Table) AddRow(label string, values ...float64) {
	if len(values) != len(t.Columns) {
		panic(fmt.Sprintf("metrics: row %q has %d values for %d columns", label, len(values), len(t.Columns)))
	}
	t.rows = append(t.rows, tableRow{label: label, values: values})
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// Value returns the cell (row, col).
func (t *Table) Value(row, col int) float64 { return t.rows[row].values[col] }

// RowLabelAt returns the label of row i.
func (t *Table) RowLabelAt(i int) string { return t.rows[i].label }

// Fprint renders the table with the given value format (e.g. "%.3f").
func (t *Table) Fprint(w io.Writer, format string) {
	if format == "" {
		format = "%.3f"
	}
	labelW := len(t.RowLabel)
	for _, r := range t.rows {
		if len(r.label) > labelW {
			labelW = len(r.label)
		}
	}
	colW := make([]int, len(t.Columns))
	cells := make([][]string, len(t.rows))
	for i, c := range t.Columns {
		colW[i] = len(c)
	}
	for ri, r := range t.rows {
		cells[ri] = make([]string, len(r.values))
		for ci, v := range r.values {
			s := fmt.Sprintf(format, v)
			cells[ri][ci] = s
			if len(s) > colW[ci] {
				colW[ci] = len(s)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n%s\n", t.Title, strings.Repeat("-", len(t.Title)))
	}
	fmt.Fprintf(w, "%-*s", labelW, t.RowLabel)
	for i, c := range t.Columns {
		fmt.Fprintf(w, "  %*s", colW[i], c)
	}
	fmt.Fprintln(w)
	for ri, r := range t.rows {
		fmt.Fprintf(w, "%-*s", labelW, r.label)
		for ci := range r.values {
			fmt.Fprintf(w, "  %*s", colW[ci], cells[ri][ci])
		}
		fmt.Fprintln(w)
	}
}

// String renders with the default format.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b, "%.3f")
	return b.String()
}

// FprintBars renders an ASCII grouped bar chart of the table, scaled to
// width characters, for quick visual comparison in a terminal. Values must
// be non-negative.
func (t *Table) FprintBars(w io.Writer, width int) {
	if width <= 0 {
		width = 50
	}
	max := 0.0
	for _, r := range t.rows {
		for _, v := range r.values {
			if v > max {
				max = v
			}
		}
	}
	if max == 0 {
		max = 1
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	for _, r := range t.rows {
		fmt.Fprintf(w, "%s\n", r.label)
		for ci, v := range r.values {
			n := int(v / max * float64(width))
			fmt.Fprintf(w, "  %-16s |%s %.3f\n", t.Columns[ci], strings.Repeat("#", n), v)
		}
	}
}
