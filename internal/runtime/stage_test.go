package runtime

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/query"
	"repro/internal/table"
)

// TestStageRowKeyFormat pins the result-cache key to the bytes the original
// fmt-based builder produced — "<fp>" + "<len>:<cell>;" per cell +
// "|<len>:<truth>|<budget>" — on the cell contents that could confuse a
// hand-rolled writer. Cache keys decide hits, dedup and inflight joins, so
// every virtual metric depends on them not moving.
func TestStageRowKeyFormat(t *testing.T) {
	reference := func(fp string, tbl *table.Table, spec query.Spec, row int) string {
		var sb strings.Builder
		sb.WriteString(fp)
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
		for _, fp := range []string{"", "fp|with:every;separator", "stage-fingerprint"} {
			for row := range rows {
				got, want := stageRowKey(fp, tbl, spec, row), reference(fp, tbl, spec, row)
				if got != want {
					t.Errorf("%s, fp %q, row %d:\n got %q\nwant %q", name, fp, row, got, want)
				}
			}
		}
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
		_ = stageRowKey("stage-fingerprint", tbl, spec, 0)
	}
}
