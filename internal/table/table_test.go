package table

import (
	"strings"
	"testing"
)

func sample() *Table {
	t := New("a", "b", "c")
	t.MustAppendRow("1", "x", "p")
	t.MustAppendRow("2", "x", "q")
	t.MustAppendRow("3", "y", "p")
	return t
}

func TestNewRejectsBadSchemas(t *testing.T) {
	mustPanic(t, func() { New("a", "a") })
	mustPanic(t, func() { New("") })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestAppendRowArity(t *testing.T) {
	tb := New("a", "b")
	if err := tb.AppendRow("1"); err == nil {
		t.Error("short row accepted")
	}
	if err := tb.AppendRow("1", "2", "3"); err == nil {
		t.Error("long row accepted")
	}
	if err := tb.AppendRow("1", "2"); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
}

func TestCellAccess(t *testing.T) {
	tb := sample()
	if got := tb.Cell(1, 0); got != "2" {
		t.Errorf("Cell(1,0) = %q", got)
	}
	v, ok := tb.CellByName(2, "b")
	if !ok || v != "y" {
		t.Errorf("CellByName(2,b) = %q,%v", v, ok)
	}
	if _, ok := tb.CellByName(0, "zzz"); ok {
		t.Error("unknown column reported present")
	}
	if i, ok := tb.ColIndex("c"); !ok || i != 2 {
		t.Errorf("ColIndex(c) = %d,%v", i, ok)
	}
}

func TestSelect(t *testing.T) {
	tb := sample()
	fds := NewFDSet()
	fds.AddGroup("a", "c")
	if err := tb.SetFDs(fds); err != nil {
		t.Fatal(err)
	}
	sel, err := tb.Select("c", "a")
	if err != nil {
		t.Fatal(err)
	}
	if sel.NumCols() != 2 || sel.NumRows() != 3 {
		t.Fatalf("select shape = %dx%d", sel.NumRows(), sel.NumCols())
	}
	if sel.Cell(0, 0) != "p" || sel.Cell(0, 1) != "1" {
		t.Errorf("select row 0 = %v", sel.Row(0))
	}
	if g := sel.FDs().Group("a"); len(g) != 2 {
		t.Errorf("FDs not restricted-through: %v", g)
	}
	if _, err := tb.Select("nope"); err == nil {
		t.Error("select of unknown column succeeded")
	}
}

func TestSelectDropsBrokenFDs(t *testing.T) {
	tb := sample()
	fds := NewFDSet()
	fds.AddGroup("a", "c")
	if err := tb.SetFDs(fds); err != nil {
		t.Fatal(err)
	}
	sel, err := tb.Select("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if g := sel.FDs().Group("a"); len(g) != 1 {
		t.Errorf("restricted FD should vanish, got group %v", g)
	}
}

func TestHeadAndFilterRows(t *testing.T) {
	tb := sample()
	if err := tb.SetHidden("label", []string{"L1", "L2", "L3"}); err != nil {
		t.Fatal(err)
	}
	h := tb.Head(2)
	if h.NumRows() != 2 {
		t.Fatalf("Head(2) rows = %d", h.NumRows())
	}
	if v := h.HiddenValue("label", 1); v != "L2" {
		t.Errorf("hidden after Head = %q", v)
	}
	f := tb.FilterRows([]int{2, 0})
	if f.NumRows() != 2 || f.Cell(0, 0) != "3" || f.Cell(1, 0) != "1" {
		t.Errorf("FilterRows wrong rows: %v %v", f.Row(0), f.Row(1))
	}
	if v := f.HiddenValue("label", 0); v != "L3" {
		t.Errorf("hidden after FilterRows = %q", v)
	}
	if tb.Head(99).NumRows() != 3 {
		t.Error("Head beyond size should clamp")
	}
}

func TestHiddenColumnErrors(t *testing.T) {
	tb := sample()
	if err := tb.SetHidden("x", []string{"only-one"}); err == nil {
		t.Error("mismatched hidden length accepted")
	}
	if _, ok := tb.Hidden("missing"); ok {
		t.Error("missing hidden column reported present")
	}
	if v := tb.HiddenValue("missing", 0); v != "" {
		t.Errorf("missing hidden value = %q", v)
	}
}

func TestCloneIsDeep(t *testing.T) {
	tb := sample()
	if err := tb.SetHidden("label", []string{"a", "b", "c"}); err != nil {
		t.Fatal(err)
	}
	cl := tb.Clone()
	cl.rows[0][0] = "mutated"
	if tb.Cell(0, 0) == "mutated" {
		t.Error("clone shares row storage")
	}
	cl.hidden["label"][0] = "mutated"
	if tb.HiddenValue("label", 0) == "mutated" {
		t.Error("clone shares hidden storage")
	}
}

func TestSortRowsLex(t *testing.T) {
	tb := New("a", "b")
	tb.MustAppendRow("2", "z")
	tb.MustAppendRow("1", "y")
	tb.MustAppendRow("2", "a")
	tb.MustAppendRow("1", "b")
	if err := tb.SetHidden("id", []string{"r0", "r1", "r2", "r3"}); err != nil {
		t.Fatal(err)
	}
	if err := tb.SortRowsLex([]string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	want := [][2]string{{"1", "b"}, {"1", "y"}, {"2", "a"}, {"2", "z"}}
	for i, w := range want {
		if tb.Cell(i, 0) != w[0] || tb.Cell(i, 1) != w[1] {
			t.Errorf("row %d = %v, want %v", i, tb.Row(i), w)
		}
	}
	// Hidden column must follow the permutation.
	if got := tb.HiddenValue("id", 0); got != "r3" {
		t.Errorf("hidden id[0] = %q, want r3", got)
	}
	if err := tb.SortRowsLex([]string{"nope"}); err == nil {
		t.Error("sort by unknown column succeeded")
	}
}

func TestSortRowsLexStable(t *testing.T) {
	tb := New("k", "v")
	tb.MustAppendRow("x", "first")
	tb.MustAppendRow("x", "second")
	tb.MustAppendRow("x", "third")
	if err := tb.SortRowsLex([]string{"k"}); err != nil {
		t.Fatal(err)
	}
	if tb.Cell(0, 1) != "first" || tb.Cell(2, 1) != "third" {
		t.Error("stable sort violated for equal keys")
	}
}

func TestDistinctValues(t *testing.T) {
	tb := sample()
	order, groups := tb.DistinctValues(1)
	if len(order) != 2 || order[0] != "x" || order[1] != "y" {
		t.Errorf("distinct order = %v", order)
	}
	if len(groups["x"]) != 2 || groups["x"][0] != 0 || groups["x"][1] != 1 {
		t.Errorf("group x = %v", groups["x"])
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tb := sample()
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	assertSameRelation(t, tb, back)
}

func TestCSVQuoting(t *testing.T) {
	tb := New("text")
	tb.MustAppendRow("has, comma and \"quotes\"\nand a newline")
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Cell(0, 0) != tb.Cell(0, 0) {
		t.Errorf("quoted cell mangled: %q", back.Cell(0, 0))
	}
}

func assertSameRelation(t *testing.T, a, b *Table) {
	t.Helper()
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		t.Fatalf("shape mismatch: %dx%d vs %dx%d", a.NumRows(), a.NumCols(), b.NumRows(), b.NumCols())
	}
	for i := range a.Columns() {
		if a.Columns()[i] != b.Columns()[i] {
			t.Fatalf("column %d: %q vs %q", i, a.Columns()[i], b.Columns()[i])
		}
	}
	for r := 0; r < a.NumRows(); r++ {
		for c := 0; c < a.NumCols(); c++ {
			if a.Cell(r, c) != b.Cell(r, c) {
				t.Fatalf("cell (%d,%d): %q vs %q", r, c, a.Cell(r, c), b.Cell(r, c))
			}
		}
	}
}

func TestSetFDsUnknownColumn(t *testing.T) {
	tb := sample()
	fds := NewFDSet()
	fds.AddGroup("a", "nope")
	if err := tb.SetFDs(fds); err == nil {
		t.Error("FD over unknown column accepted")
	}
}
