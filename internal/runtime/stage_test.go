package runtime

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/query"
	"repro/internal/table"
)

// TestStageRowKeyFormat pins the row part of the result-cache key: a
// multi-column row's cells render as "<len>:<cell>;" per cell, the bytes the
// original fmt-based builder produced, on the cell contents that could
// confuse a hand-rolled writer; a one-column row's cells are the table's own
// cell string, not a copy; truth and budget ride beside them. Cache keys
// decide hits, dedup and inflight joins, so every virtual metric depends on
// them not moving.
func TestStageRowKeyFormat(t *testing.T) {
	reference := func(tbl *table.Table, spec query.Spec, row int) rowKey {
		var sb strings.Builder
		for _, cell := range tbl.Row(row) {
			fmt.Fprintf(&sb, "%d:%s;", len(cell), cell)
		}
		k := rowKey{cells: sb.String(), budget: spec.OutTokensFor(row)}
		if len(tbl.Columns()) == 1 {
			k.cells = tbl.Cell(row, 0)
		}
		if spec.TruthHidden != "" {
			k.truth = tbl.HiddenValue(spec.TruthHidden, row)
		}
		return k
	}

	long := strings.Repeat("x", 12345)
	rows := [][]string{
		{"plain", "text", "7"},
		{"", "", ""},
		{"a:b", "c;d", "e|f"},
		{"3:abc;", "|0:|8", "1:;"},
		{"naïve café", "日本語のレビュー", "🎬"},
		{long, "%d:%s;", "\n\t\x00"},
	}
	wide := table.New("title", "review", "score")
	narrow := table.New("review")
	labels := make([]string, len(rows))
	for i, r := range rows {
		if err := wide.AppendRow(r...); err != nil {
			t.Fatal(err)
		}
		if err := narrow.AppendRow(r[i%len(r)]); err != nil {
			t.Fatal(err)
		}
		labels[i] = r[(i+1)%len(r)] // hidden truths reuse the awkward cells
	}
	for _, tbl := range []*table.Table{wide, narrow} {
		if err := tbl.SetHidden("label", labels); err != nil {
			t.Fatal(err)
		}
	}

	specs := map[string]query.Spec{
		"no truth, hashed budget": {OutTokens: 8},
		"hidden truth":            {OutTokens: 64, TruthHidden: "label"},
		"absent hidden column":    {OutTokens: 1, TruthHidden: "missing"},
		"per-row budget": {OutTokens: 8, TruthHidden: "label",
			RowOutTokens: func(row int) int { return []int{0, 9, 10, 99, 100, 1234567}[row] }},
	}
	for name, spec := range specs {
		for _, tbl := range []*table.Table{wide, narrow} {
			for row := range rows {
				got, want := stageRowKey(tbl, spec, row), reference(tbl, spec, row)
				if got != want {
					t.Errorf("%s, %d columns, row %d:\n got %+v\nwant %+v", name, len(tbl.Columns()), row, got, want)
				}
			}
		}
	}
	for row := range rows {
		if got := stageRowKey(narrow, query.Spec{}, row); unsafe.StringData(got.cells) != unsafe.StringData(narrow.Cell(row, 0)) {
			t.Errorf("row %d: a one-column key copies its cell", row)
		}
	}
}

// TestResultCacheKeysOnStageAndRow: two stages whose rows read the same but
// whose fingerprints differ share no entry and no inflight computation, and
// neither do two rows of one stage that differ only in truth or budget.
func TestResultCacheKeysOnStageAndRow(t *testing.T) {
	c := newResultCache(8)
	row := rowKey{cells: "1:x;", budget: 8}
	a, b := resultKey{"stage-a", row}, resultKey{"stage-b", row}
	if state, _, _ := c.acquire(a); state != acquireOwned {
		t.Fatalf("first acquire of a = %v, want owned", state)
	}
	if state, _, _ := c.acquire(b); state != acquireOwned {
		t.Errorf("b joined a's inflight computation (state %v); fingerprints differ", state)
	}
	c.commit(a, "yes")
	c.commit(b, "no")
	for key, want := range map[resultKey]string{a: "yes", b: "no"} {
		if state, val, _ := c.acquire(key); state != acquireHit || val != want {
			t.Errorf("acquire(%v) = %v %q, want a hit on %q", key, state, val, want)
		}
	}
	for _, other := range []rowKey{{cells: "1:x;", truth: "1", budget: 8}, {cells: "1:x;", budget: 9}} {
		if state, _, _ := c.acquire(resultKey{"stage-a", other}); state != acquireOwned {
			t.Errorf("row %+v hit a's entry (state %v)", other, state)
		}
	}
	if c.len() != 2 {
		t.Errorf("cached entries = %d, want 2", c.len())
	}
}

// TestResultCacheInternsRows: one row committed under many stage
// fingerprints is retained once, whichever statement rendered its key, and
// the intern table is cleared once it reaches its bound rather than growing
// with every row ever committed.
func TestResultCacheInternsRows(t *testing.T) {
	c := newResultCache(64)
	render := func() rowKey { return rowKey{cells: strings.Repeat("1:x;", 4), budget: 8} } // a fresh copy per call
	for i := 0; i < 3; i++ {
		key := resultKey{fmt.Sprint("stage-", i), render()}
		c.acquire(key)
		c.commit(key, "yes")
	}
	first := ""
	for key := range c.entries.All() {
		if first == "" {
			first = key.cells
		} else if unsafe.StringData(key.cells) != unsafe.StringData(first) {
			t.Errorf("stage %s retains its own copy of the row key", key.stage)
		}
	}
	for i := 0; len(c.rows) < internRows; i++ {
		c.commit(resultKey{"stage-n", rowKey{cells: fmt.Sprint(i)}}, "")
	}
	c.commit(resultKey{"stage-n", rowKey{cells: "one more"}}, "")
	if len(c.rows) != 1 {
		t.Errorf("intern table holds %d rows after reaching its %d-row bound, want 1", len(c.rows), internRows)
	}
}

// TestDecimalLen pins the size hint stageRowKey allocates from.
func TestDecimalLen(t *testing.T) {
	for _, n := range []int{0, 1, 9, 10, 99, 100, 12345, 1 << 40} {
		if got, want := decimalLen(n), len(fmt.Sprint(n)); got != want {
			t.Errorf("decimalLen(%d) = %d, want %d", n, got, want)
		}
	}
}

func BenchmarkStageRowKey(b *testing.B) {
	tbl := table.New("title", "review", "score")
	_ = tbl.AppendRow("The Movie", strings.Repeat("a fine review ", 20), "7")
	spec := query.Spec{OutTokens: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = stageRowKey(tbl, spec, 0)
	}
}
