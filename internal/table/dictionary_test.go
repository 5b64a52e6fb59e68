package table

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// checkDictionary holds d to the table it codes: every cell is the value its
// id names, and ids are numbered in first-appearance order.
func checkDictionary(t *testing.T, tbl *Table, d *Dictionary) {
	t.Helper()
	if len(d.Codes) != tbl.NumCols() || len(d.First) != tbl.NumCols() {
		t.Fatalf("dictionary has %d/%d columns, table %d", len(d.Codes), len(d.First), tbl.NumCols())
	}
	for c := range d.Codes {
		if len(d.Codes[c]) != tbl.NumRows() {
			t.Fatalf("column %d codes %d rows, table has %d", c, len(d.Codes[c]), tbl.NumRows())
		}
		order, groups := tbl.DistinctValues(c)
		if len(d.First[c]) != len(order) {
			t.Fatalf("column %d has %d ids, %d distinct values", c, len(d.First[c]), len(order))
		}
		for id, v := range order {
			if r := d.First[c][id]; int(r) != groups[v][0] {
				t.Fatalf("column %d id %d first at row %d, value %q first at row %d", c, id, r, v, groups[v][0])
			}
		}
		for r, id := range d.Codes[c] {
			if got := tbl.Cell(int(d.First[c][id]), c); got != tbl.Cell(r, c) {
				t.Fatalf("cell (%d, %d) codes to %q, holds %q", r, c, got, tbl.Cell(r, c))
			}
		}
	}
}

func TestDictionaryCodesInFirstAppearanceOrder(t *testing.T) {
	tbl := sample()
	d := tbl.Dictionary()
	checkDictionary(t, tbl, d)
	if !slices.Equal(d.Codes[1], []int32{0, 0, 1}) || !slices.Equal(d.First[1], []int32{0, 2}) {
		t.Errorf("column b coded %v, first rows %v", d.Codes[1], d.First[1])
	}
	if tbl.Dictionary() != d {
		t.Error("an unchanged table rebuilt its dictionary")
	}
	if empty := New("a").Dictionary(); len(empty.Codes[0]) != 0 || len(empty.First[0]) != 0 {
		t.Errorf("empty table coded %v, first rows %v", empty.Codes[0], empty.First[0])
	}
}

// TestDictionaryFollowsRowChanges: AppendRow and SortRowsLex drop the
// dictionary, so the next one codes the rows as they are; derived tables code
// their own rows.
func TestDictionaryFollowsRowChanges(t *testing.T) {
	tbl := sample()
	before := tbl.Dictionary()
	tbl.MustAppendRow("4", "z", "p")
	checkDictionary(t, tbl, tbl.Dictionary())
	if err := tbl.SortRowsLex([]string{"c", "b"}); err != nil {
		t.Fatal(err)
	}
	checkDictionary(t, tbl, tbl.Dictionary())
	if len(before.Codes[0]) != 3 {
		t.Error("a handed-out dictionary changed under its holder")
	}
	for _, sub := range []*Table{tbl.FilterRows([]int{3, 1, 1}), tbl.Head(2), tbl.Clone()} {
		checkDictionary(t, sub, sub.Dictionary())
	}
	sel, err := tbl.Select("c", "a")
	if err != nil {
		t.Fatal(err)
	}
	checkDictionary(t, sel, sel.Dictionary())
}

// TestDictionaryConcurrentReaders: goroutines racing to the first use all get
// the one dictionary (run under -race in CI).
func TestDictionaryConcurrentReaders(t *testing.T) {
	tbl := New("k", "v")
	for i := 0; i < 500; i++ {
		tbl.MustAppendRow(fmt.Sprint(i%7), fmt.Sprint(i%13))
	}
	got := make([]*Dictionary, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = tbl.Dictionary()
		}()
	}
	wg.Wait()
	for g, d := range got {
		if d != got[0] {
			t.Fatalf("reader %d got a second dictionary", g)
		}
	}
	checkDictionary(t, tbl, got[0])
}
