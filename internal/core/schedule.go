// Package core implements the paper's contribution: request-reordering
// algorithms that maximize the prefix hit count (PHC) of an LLM query's
// request batch.
//
// A request schedule is a list of tuples L (Sec. 3.1): each tuple is one row
// of the input table, and both the order of tuples and the order of fields
// inside each tuple are free — every row may use a different field order.
// The objective, PHC (Eq. 1–2), sums per row the squared lengths of the
// leading run of cells that exactly match the previous row's cells.
//
// Three schedulers are provided:
//
//   - Original: the identity schedule (the Cache (Original) baseline).
//   - OPHR: the exact, exponential-time Optimal Prefix Hit Recursion.
//   - GGR: Greedy Group Recursion (Algorithm 1), the practical solver, with
//     functional-dependency inference, early stopping, and a table-statistics
//     fallback ordering.
//
// GGR plans per distinct value, not per cell. Relational cells repeat —
// that is the premise the schedule exploits for the KV cache — so a solve
// starts from the table's dictionary: the table owns it (table.Dictionary),
// builds it once on first use and shares it with every later solve and with
// prompt tokenization. Each column's values are int32 ids, a solve measures
// each id's squared length once, and the recursion, the fallback
// orderings, the row sorts and the PHC accounting all run on ids; cell
// strings are touched again only to rank a column for sorting and to
// materialize the winning schedule. Ids are handed out in first-appearance
// order and every scan visits candidates in the order the rows present
// them, never in map order, so a solve is deterministic and breaks ties
// exactly as a scan over the cell strings would (testdata/ggr_golden.txt
// pins this against the string-keyed solver it replaced).
package core

import (
	"fmt"

	"repro/internal/table"
)

// Cell is one (field, value) pair of a scheduled request. Prefix matching
// compares both members: serialized prompts include the field name (JSON
// key), so a value match under a different field is not a cache hit.
type Cell struct {
	Field string
	Value string
}

// Row is one scheduled request: the source row index in the input table and
// the cells in their chosen serialization order.
type Row struct {
	Source int
	Cells  []Cell
}

// Schedule is a reordered list of tuples — the solver output that the query
// executor turns into prompts.
type Schedule struct {
	Rows []Row
}

// PHC computes the exact prefix hit count of the schedule (Eq. 1–2): for
// each row after the first, the sum of squared cell lengths over the longest
// leading run of cells equal to the previous row's, summed over rows.
func PHC(s *Schedule, lenOf table.LenFunc) int64 {
	var total int64
	for r := 1; r < len(s.Rows); r++ {
		prev, cur := s.Rows[r-1].Cells, s.Rows[r].Cells
		n := len(cur)
		if len(prev) < n {
			n = len(prev)
		}
		for f := 0; f < n; f++ {
			if cur[f] != prev[f] {
				break
			}
			l := int64(lenOf(cur[f].Value))
			total += l * l
		}
	}
	return total
}

// HitStats decomposes a schedule's prefix reuse in linear (token) units:
// Matched is the total length of cells reused from the previous row, Total
// the total length of all cells. Matched/Total approximates the prefix hit
// rate an ideal adjacent-row cache would observe on the data payload.
type HitStats struct {
	Matched int64
	Total   int64
}

// Rate returns Matched/Total, or 0 for an empty schedule.
func (h HitStats) Rate() float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Matched) / float64(h.Total)
}

// Hits measures linear prefix reuse of a schedule.
func Hits(s *Schedule, lenOf table.LenFunc) HitStats {
	var st HitStats
	for r := 0; r < len(s.Rows); r++ {
		cur := s.Rows[r].Cells
		run := true
		for f, c := range cur {
			l := int64(lenOf(c.Value))
			st.Total += l
			if r == 0 || !run {
				continue
			}
			prev := s.Rows[r-1].Cells
			if f < len(prev) && prev[f] == c {
				st.Matched += l
			} else {
				run = false
			}
		}
	}
	return st
}

// Verify checks that a schedule preserves query semantics over t: every
// source row appears exactly once, and each scheduled row's cells are a
// permutation of that source row's (field, value) pairs. This is the
// invariant that lets reordering be applied transparently inside an
// analytics engine.
func Verify(t *table.Table, s *Schedule) error {
	if len(s.Rows) != t.NumRows() {
		return fmt.Errorf("core: schedule has %d rows, table has %d", len(s.Rows), t.NumRows())
	}
	seen := make([]bool, t.NumRows())
	cols := t.Columns()
	usedBy := make([]int, len(cols)) // 1 + the last schedule row using the column
	for i, r := range s.Rows {
		if r.Source < 0 || r.Source >= t.NumRows() {
			return fmt.Errorf("core: schedule row %d has out-of-range source %d", i, r.Source)
		}
		if seen[r.Source] {
			return fmt.Errorf("core: source row %d scheduled twice", r.Source)
		}
		seen[r.Source] = true
		if len(r.Cells) != len(cols) {
			return fmt.Errorf("core: schedule row %d has %d cells, table has %d columns", i, len(r.Cells), len(cols))
		}
		for _, c := range r.Cells {
			j, ok := t.ColIndex(c.Field)
			if !ok {
				return fmt.Errorf("core: schedule row %d references unknown field %q", i, c.Field)
			}
			if usedBy[j] == i+1 {
				return fmt.Errorf("core: schedule row %d repeats field %q", i, c.Field)
			}
			usedBy[j] = i + 1
			if want := t.Cell(r.Source, j); want != c.Value {
				return fmt.Errorf("core: schedule row %d field %q has value %q, table has %q", i, c.Field, c.Value, want)
			}
		}
	}
	return nil
}

// Original returns the identity schedule: rows in table order, fields in
// schema order. This is the paper's Cache (Original) baseline.
func Original(t *table.Table) *Schedule {
	cols := t.Columns()
	s := &Schedule{Rows: make([]Row, t.NumRows())}
	for i := 0; i < t.NumRows(); i++ {
		cells := make([]Cell, len(cols))
		for j, c := range cols {
			cells[j] = Cell{Field: c, Value: t.Cell(i, j)}
		}
		s.Rows[i] = Row{Source: i, Cells: cells}
	}
	return s
}

// FixedOrder returns a schedule with a single field order shared by all rows
// and rows sorted lexicographically under that order — the strongest
// schedule achievable without per-row field reordering (the Sec. 3.2
// strawman). The column order must be a permutation of the table's columns.
func FixedOrder(t *table.Table, colOrder []string) (*Schedule, error) {
	if len(colOrder) != t.NumCols() {
		return nil, fmt.Errorf("core: fixed order has %d columns, table has %d", len(colOrder), t.NumCols())
	}
	idx := make([]int, len(colOrder))
	for i, c := range colOrder {
		j, ok := t.ColIndex(c)
		if !ok {
			return nil, fmt.Errorf("core: fixed order references unknown column %q", c)
		}
		idx[i] = j
	}
	rows := make([]int, t.NumRows())
	for i := range rows {
		rows[i] = i
	}
	sortRowsByCols(t, rows, idx)
	s := &Schedule{Rows: make([]Row, len(rows))}
	for i, src := range rows {
		cells := make([]Cell, len(idx))
		for k, j := range idx {
			cells[k] = Cell{Field: colOrder[k], Value: t.Cell(src, j)}
		}
		s.Rows[i] = Row{Source: src, Cells: cells}
	}
	return s, nil
}

// BestFixed chooses the statistics-driven fixed field order (descending
// expected PHC contribution) and returns the FixedOrder schedule for it.
func BestFixed(t *table.Table, lenOf table.LenFunc) *Schedule {
	stats := table.ComputeStats(t, lenOf)
	order := stats.OrderByScore(t.Columns())
	s, err := FixedOrder(t, order)
	if err != nil {
		// Unreachable: order is a permutation of t's columns by construction.
		panic(err)
	}
	return s
}
