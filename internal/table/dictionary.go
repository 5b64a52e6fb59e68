package table

// Dictionary is a table's per-column dictionary coding: each column's
// distinct values numbered in first-appearance order, so a lower id always
// first occurs on an earlier row. Consumers that work per distinct value
// instead of per cell — the GGR solver, prompt tokenization — start from it,
// and the table builds it once for all of them. A Dictionary is immutable.
type Dictionary struct {
	// Codes[c][r] is the id of row r's value within column c.
	Codes [][]int32
	// First[c][id] is the first row holding the value column c numbers id,
	// so the value is Cell(First[c][id], c). Rows, not strings: nothing in a
	// Dictionary is a pointer for the garbage collector to scan.
	First [][]int32
}

// Dictionary returns the table's dictionary coding, building it on first
// use. It is safe for concurrent use. AppendRow and SortRowsLex drop it, so
// the next call codes the rows as they are then.
func (t *Table) Dictionary() *Dictionary {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dict == nil {
		t.dict = newDictionary(t.rows, len(t.cols))
	}
	return t.dict
}

// dropDictionary forgets the dictionary after the rows changed.
func (t *Table) dropDictionary() {
	t.mu.Lock()
	t.dict = nil
	t.mu.Unlock()
}

func newDictionary(rows [][]string, m int) *Dictionary {
	n := len(rows)
	d := &Dictionary{Codes: make([][]int32, m), First: make([][]int32, m)}
	flat := make([]int32, n*m)
	ids := make(map[string]int32)
	for c := 0; c < m; c++ {
		clear(ids)
		col := flat[c*n : (c+1)*n : (c+1)*n]
		var first []int32
		for r, row := range rows {
			v := row[c]
			id, ok := ids[v]
			if !ok {
				id = int32(len(first))
				ids[v] = id
				first = append(first, int32(r))
			}
			col[r] = id
		}
		d.Codes[c], d.First[c] = col, first
	}
	return d
}
