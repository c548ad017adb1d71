package experiments

import (
	"fmt"
	"strings"
)

// Table is what every figure of the registry reduces to, and all its
// rendering and its tests read: one value per point (a table row) and
// named column, with the heading, column heads and row format it prints
// under.
type Table struct {
	Heading string
	// Head is the column-head line; Row formats one point: its label,
	// then one value per column.
	Head, Row string
	Points    []string    // point labels, in figure order
	Names     []string    // column names
	Rows      [][]float64 // Rows[i][j] is Names[j] at Points[i]
}

// col is one value column of a table built by newTable: its name, print
// width and precision.
type col struct {
	name        string
	width, prec int
}

// newTable starts a table under heading whose rows print their label
// padded to the width of the label column's head, then one value per
// column, right-aligned under its name.
func newTable(heading, label string, cols ...col) *Table {
	t := &Table{Heading: heading, Head: label, Row: fmt.Sprintf("%%-%ds", len(label))}
	for _, c := range cols {
		t.Head += fmt.Sprintf(" %*s", c.width, c.name)
		t.Row += fmt.Sprintf(" %%%d.%df", c.width, c.prec)
		t.Names = append(t.Names, c.name)
	}
	return t
}

// add appends one point.
func (t *Table) add(label string, values ...float64) {
	t.Points, t.Rows = append(t.Points, label), append(t.Rows, values)
}

// String renders the table: its heading, the column heads, then one row
// per point.
func (t *Table) String() string {
	var b strings.Builder
	b.WriteString(t.Heading + "\n" + t.Head + "\n")
	for i, label := range t.Points {
		args := []any{label}
		for _, v := range t.Rows[i] {
			args = append(args, v)
		}
		fmt.Fprintf(&b, t.Row+"\n", args...)
	}
	return b.String()
}
