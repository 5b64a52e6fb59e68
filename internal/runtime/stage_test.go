package runtime

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/table"
)

// TestStageRowKeyFormat pins the row part of the result-cache key to the
// bytes the original fmt-based builder produced after the fingerprint —
// "<len>:<cell>;" per cell + "|<len>:<truth>|<budget>" — on the cell
// contents that could confuse a hand-rolled writer. Cache keys decide hits,
// dedup and inflight joins, so every virtual metric depends on them not
// moving.
func TestStageRowKeyFormat(t *testing.T) {
	reference := func(tbl *table.Table, spec query.Spec, row int) string {
		var sb strings.Builder
		for _, cell := range tbl.Row(row) {
			fmt.Fprintf(&sb, "%d:%s;", len(cell), cell)
		}
		truth := ""
		if spec.TruthHidden != "" {
			truth = tbl.HiddenValue(spec.TruthHidden, row)
		}
		fmt.Fprintf(&sb, "|%d:%s|%d", len(truth), truth, spec.OutTokensFor(row))
		return sb.String()
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
	tbl := table.New("title", "review", "score")
	labels := make([]string, len(rows))
	for i, r := range rows {
		if err := tbl.AppendRow(r...); err != nil {
			t.Fatal(err)
		}
		labels[i] = r[(i+1)%len(r)] // hidden truths reuse the awkward cells
	}
	if err := tbl.SetHidden("label", labels); err != nil {
		t.Fatal(err)
	}

	specs := map[string]query.Spec{
		"no truth, hashed budget": {OutTokens: 8},
		"hidden truth":            {OutTokens: 64, TruthHidden: "label"},
		"absent hidden column":    {OutTokens: 1, TruthHidden: "missing"},
		"per-row budget": {OutTokens: 8, TruthHidden: "label",
			RowOutTokens: func(row int) int { return []int{0, 9, 10, 99, 100, 1234567}[row] }},
	}
	for name, spec := range specs {
		for row := range rows {
			got, want := stageRowKey(tbl, spec, row), reference(tbl, spec, row)
			if got != want {
				t.Errorf("%s, row %d:\n got %q\nwant %q", name, row, got, want)
			}
		}
	}
}

// TestResultCacheKeysOnStageAndRow: two stages whose rows render the same
// row part but whose fingerprints differ share no entry and no inflight
// computation, and a fingerprint that merely ends where the other's row part
// begins is still a different key.
func TestResultCacheKeysOnStageAndRow(t *testing.T) {
	c := newResultCache(8)
	a, b := resultKey{"stage-a", "1:x;|0:|8"}, resultKey{"stage-b", "1:x;|0:|8"}
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
	if state, _, _ := c.acquire(resultKey{"stage-a1:x;", "|0:|8"}); state != acquireOwned {
		t.Errorf("a key split elsewhere hit a's entry (state %v)", state)
	}
	if c.len() != 2 {
		t.Errorf("cached entries = %d, want 2", c.len())
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
