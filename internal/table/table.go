// Package table implements the relational substrate for LLM queries: an
// in-memory column-named row store, functional dependencies over its schema,
// and the table statistics (cardinality, value-length moments) that the GGR
// reordering algorithm consumes.
package table

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// LenFunc measures the cost length of a cell value. The paper's prefix hit
// count squares these lengths (Eq. 2); the unit is pluggable so the same
// algorithms run over character lengths (the paper's abstract examples) and
// token counts (what the KV cache actually stores).
type LenFunc func(string) int

// CharLen measures values in bytes.
func CharLen(s string) int { return len(s) }

// UnitLen assigns every value length 1, matching the simplified case studies
// in Sec. 3.2 of the paper where all values have length one.
func UnitLen(string) int { return 1 }

// Table is an in-memory relation: an ordered list of column names and a
// row-major cell matrix. All cells are strings, mirroring how values are
// ultimately serialized into prompts.
type Table struct {
	cols   []string
	colIdx map[string]int
	rows   [][]string
	fds    *FDSet
	hidden map[string][]string // side-band per-row data (labels etc.), not part of the relation

	mu   sync.Mutex
	dict *Dictionary // built by Dictionary on first use; guarded by mu
}

// New creates an empty table with the given column names.
// It panics if a column name is empty or duplicated: schemas are
// programmer-provided and such a schema is a bug, not an input error.
func New(cols ...string) *Table {
	idx := make(map[string]int, len(cols))
	for i, c := range cols {
		if c == "" {
			panic("table: empty column name")
		}
		if _, dup := idx[c]; dup {
			panic(fmt.Sprintf("table: duplicate column %q", c))
		}
		idx[c] = i
	}
	return &Table{
		cols:   append([]string(nil), cols...),
		colIdx: idx,
		fds:    NewFDSet(),
		hidden: make(map[string][]string),
	}
}

// Columns returns the column names in schema order. The slice must not be
// modified.
func (t *Table) Columns() []string { return t.cols }

// NumCols reports the number of columns.
func (t *Table) NumCols() int { return len(t.cols) }

// NumRows reports the number of rows.
func (t *Table) NumRows() int { return len(t.rows) }

// ColIndex returns the position of the named column and whether it exists.
func (t *Table) ColIndex(name string) (int, bool) {
	i, ok := t.colIdx[name]
	return i, ok
}

// AppendRow adds a row. The number of cells must equal the number of
// columns.
func (t *Table) AppendRow(cells ...string) error {
	if len(cells) != len(t.cols) {
		return fmt.Errorf("table: row has %d cells, schema has %d columns", len(cells), len(t.cols))
	}
	t.rows = append(t.rows, append([]string(nil), cells...))
	t.dropDictionary()
	return nil
}

// MustAppendRow is AppendRow for construction sites where a mismatch is a
// programming error.
func (t *Table) MustAppendRow(cells ...string) {
	if err := t.AppendRow(cells...); err != nil {
		panic(err)
	}
}

// Cell returns the value at (row, col index).
func (t *Table) Cell(row, col int) string { return t.rows[row][col] }

// CellByName returns the value of the named column in the given row and
// whether the column exists.
//
//llmqlint:api llmq.Table; the datagen tests read cells by column name
func (t *Table) CellByName(row int, col string) (string, bool) {
	i, ok := t.colIdx[col]
	if !ok {
		return "", false
	}
	return t.rows[row][i], true
}

// Row returns the cells of a row in schema order. The slice must not be
// modified.
func (t *Table) Row(i int) []string { return t.rows[i] }

// SetFDs attaches the functional dependencies of this relation. Dependencies
// referencing unknown columns are rejected.
func (t *Table) SetFDs(fds *FDSet) error {
	for _, col := range fds.Fields() {
		if _, ok := t.colIdx[col]; !ok {
			return fmt.Errorf("table: FD references unknown column %q", col)
		}
	}
	t.fds = fds
	return nil
}

// FDs returns the functional dependency set (never nil).
func (t *Table) FDs() *FDSet { return t.fds }

// SetHidden attaches a side-band column (for example ground-truth labels
// used by accuracy experiments). Hidden columns travel with the table but
// are not part of the relation: they are never serialized into prompts and
// never considered by the reordering algorithms.
func (t *Table) SetHidden(name string, values []string) error {
	if len(values) != len(t.rows) {
		return fmt.Errorf("table: hidden column %q has %d values, table has %d rows", name, len(values), len(t.rows))
	}
	t.hidden[name] = append([]string(nil), values...)
	return nil
}

// Hidden returns a side-band column and whether it exists.
func (t *Table) Hidden(name string) ([]string, bool) {
	v, ok := t.hidden[name]
	return v, ok
}

// HiddenValue returns one cell of a side-band column, or "" if absent.
func (t *Table) HiddenValue(name string, row int) string {
	v, ok := t.hidden[name]
	if !ok || row < 0 || row >= len(v) {
		return ""
	}
	return v[row]
}

// Select returns a new table with only the named columns, preserving row
// order, hidden columns, and the FDs restricted to the kept columns.
func (t *Table) Select(cols ...string) (*Table, error) {
	idxs := make([]int, len(cols))
	for i, c := range cols {
		j, ok := t.colIdx[c]
		if !ok {
			return nil, fmt.Errorf("table: select of unknown column %q", c)
		}
		idxs[i] = j
	}
	out := New(cols...)
	for _, r := range t.rows {
		cells := make([]string, len(idxs))
		for i, j := range idxs {
			cells[i] = r[j]
		}
		out.rows = append(out.rows, cells)
	}
	out.fds = t.fds.Restrict(cols)
	for name, vals := range t.hidden {
		out.hidden[name] = vals
	}
	return out, nil
}

// Head returns a new table containing the first n rows (or all rows if the
// table is shorter). Hidden columns are truncated to match.
func (t *Table) Head(n int) *Table {
	if n > len(t.rows) {
		n = len(t.rows)
	}
	out := New(t.cols...)
	out.fds = t.fds
	for i := 0; i < n; i++ {
		out.rows = append(out.rows, t.rows[i])
	}
	for name, vals := range t.hidden {
		out.hidden[name] = vals[:n]
	}
	return out
}

// FilterRows returns a new table with only the rows at the given indices,
// in the given order. Hidden columns follow.
func (t *Table) FilterRows(idx []int) *Table {
	out := New(t.cols...)
	out.fds = t.fds
	for _, i := range idx {
		out.rows = append(out.rows, t.rows[i])
	}
	for name, vals := range t.hidden {
		kept := make([]string, len(idx))
		for k, i := range idx {
			kept[k] = vals[i]
		}
		out.hidden[name] = kept
	}
	return out
}

// Clone deep-copies the table.
//
//llmqlint:api llmq.Table
func (t *Table) Clone() *Table {
	out := New(t.cols...)
	out.fds = t.fds.Clone()
	out.rows = make([][]string, len(t.rows))
	for i, r := range t.rows {
		out.rows[i] = append([]string(nil), r...)
	}
	for name, vals := range t.hidden {
		out.hidden[name] = append([]string(nil), vals...)
	}
	return out
}

// SortRowsLex sorts rows lexicographically by the given column order:
// identical values in the leading columns become adjacent, maximizing prefix
// reuse under a fixed field order (GGR's fallback does the same on its own
// row indices). Sorting is stable so earlier orderings are preserved among
// ties.
//
//llmqlint:api llmq.Table; the query tests build sorted schedules with it
func (t *Table) SortRowsLex(colOrder []string) error {
	idxs := make([]int, len(colOrder))
	for i, c := range colOrder {
		j, ok := t.colIdx[c]
		if !ok {
			return fmt.Errorf("table: sort by unknown column %q", c)
		}
		idxs[i] = j
	}
	perm := make([]int, len(t.rows))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		ra, rb := t.rows[perm[a]], t.rows[perm[b]]
		for _, j := range idxs {
			if ra[j] != rb[j] {
				return ra[j] < rb[j]
			}
		}
		return false
	})
	t.applyRowPerm(perm)
	return nil
}

// applyRowPerm reorders rows (and hidden columns) by perm, where perm[i] is
// the source index of destination row i.
func (t *Table) applyRowPerm(perm []int) {
	rows := make([][]string, len(perm))
	for i, src := range perm {
		rows[i] = t.rows[src]
	}
	t.rows = rows
	t.dropDictionary()
	for name, vals := range t.hidden {
		nv := make([]string, len(perm))
		for i, src := range perm {
			nv[i] = vals[src]
		}
		t.hidden[name] = nv
	}
}

// DistinctValues returns the distinct values of a column together with the
// row indices holding each value, in first-appearance order.
//
//llmqlint:api llmq.Table
func (t *Table) DistinctValues(col int) ([]string, map[string][]int) {
	groups := make(map[string][]int)
	var order []string
	for i, r := range t.rows {
		v := r[col]
		if _, seen := groups[v]; !seen {
			order = append(order, v)
		}
		groups[v] = append(groups[v], i)
	}
	return order, groups
}

// String renders a small preview for debugging.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table(%d rows × %d cols: %s)", len(t.rows), len(t.cols), strings.Join(t.cols, ", "))
	return sb.String()
}
