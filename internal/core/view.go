package core

import (
	"sort"

	"repro/internal/table"
)

// view is a sub-table: a subset of base rows and base columns, in order.
// OPHR recurses over views so splitting never copies cell data.
type view struct {
	t    *table.Table
	rows []int // base row indices
	cols []int // base column indices
}

func fullView(t *table.Table) view {
	rows := make([]int, t.NumRows())
	for i := range rows {
		rows[i] = i
	}
	cols := make([]int, t.NumCols())
	for i := range cols {
		cols[i] = i
	}
	return view{t: t, rows: rows, cols: cols}
}

// lens caches value lengths so LenFunc (often a tokenizer pass) runs once
// per distinct value regardless of how often solvers rescan. Relational data
// repeats values heavily, which is the whole premise of the paper, so a
// value-keyed memo is both small and effective.
type lens struct {
	memo  map[string]int64
	lenOf table.LenFunc
}

func newLens(lenOf table.LenFunc) *lens {
	return &lens{memo: make(map[string]int64, 1024), lenOf: lenOf}
}

// of returns the length of a value.
func (l *lens) of(v string) int64 {
	if n, ok := l.memo[v]; ok {
		return n
	}
	n := int64(l.lenOf(v))
	l.memo[v] = n
	return n
}

// sq returns the squared length of a value.
func (l *lens) sq(v string) int64 {
	n := l.of(v)
	return n * n
}

// fn adapts the memo back to a table.LenFunc.
func (l *lens) fn() table.LenFunc {
	return func(v string) int { return int(l.of(v)) }
}

// sortRowsByCols sorts base row indices lexicographically by the given base
// column indices, stably.
func sortRowsByCols(t *table.Table, rows []int, colIdx []int) {
	sort.SliceStable(rows, func(a, b int) bool {
		ra, rb := rows[a], rows[b]
		for _, j := range colIdx {
			va, vb := t.Cell(ra, j), t.Cell(rb, j)
			if va != vb {
				return va < vb
			}
		}
		return false
	})
}

// emitFixed builds schedule rows for a view under a fixed view-column order
// given by positions into v.cols.
func emitFixed(v view, colPos []int) []Row {
	colNames := make([]string, len(colPos))
	colBase := make([]int, len(colPos))
	for i, p := range colPos {
		colBase[i] = v.cols[p]
		colNames[i] = v.t.Columns()[v.cols[p]]
	}
	out := make([]Row, len(v.rows))
	for i, src := range v.rows {
		cells := make([]Cell, len(colBase))
		for k, j := range colBase {
			cells[k] = Cell{Field: colNames[k], Value: v.t.Cell(src, j)}
		}
		out[i] = Row{Source: src, Cells: cells}
	}
	return out
}

func identityPositions(n int) []int {
	pos := make([]int, n)
	for i := range pos {
		pos[i] = i
	}
	return pos
}
