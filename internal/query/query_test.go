package query

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/llmsim"
	"repro/internal/tokenizer"
)

var genOpt = datagen.Options{Scale: 0.01, Seed: 7}

func cfgFor(p Policy) Config {
	return Config{Policy: p, Model: llmsim.Llama3_8B, Cluster: llmsim.SingleL4}
}

func TestPromptConstruction(t *testing.T) {
	cells := []core.Cell{{Field: "b", Value: "2"}, {Field: "a", Value: "1"}}
	p := BuildPrompt("Is it good?", cells)
	if !strings.HasPrefix(p, SystemPrompt) {
		t.Error("prompt missing system prefix")
	}
	if !strings.Contains(p, "Is it good?") {
		t.Error("prompt missing user question")
	}
	// Field order must be preserved exactly: b before a.
	if strings.Index(p, "\"b\"") > strings.Index(p, "\"a\"") {
		t.Error("JSON key order not preserved")
	}
}

func TestRowJSONEscaping(t *testing.T) {
	j := RowJSON([]core.Cell{{Field: "f", Value: "has \"quotes\" and\nnewline"}})
	if !strings.Contains(j, `\"quotes\"`) || !strings.Contains(j, `\n`) {
		t.Errorf("escaping broken: %s", j)
	}
}

func TestSharedPrefixIdenticalAcrossRows(t *testing.T) {
	// All requests of a query must share the (system + question) token
	// prefix — the hit-rate floor for every baseline.
	tok := tokenizer.New()
	a := tok.Encode(BuildPrompt("Q?", []core.Cell{{Field: "x", Value: "one"}}))
	b := tok.Encode(BuildPrompt("Q?", []core.Cell{{Field: "x", Value: "two"}}))
	p := tok.Encode(PromptPrefix("Q?"))
	for i := range p {
		if a[i] != p[i] || b[i] != p[i] {
			t.Fatalf("prefix diverges at token %d", i)
		}
	}
}

func TestSpecsRegistry(t *testing.T) {
	all := Specs()
	if len(all) != 16 {
		t.Fatalf("benchmark has %d queries, want 16", len(all))
	}
	byType := map[Type]int{}
	for _, s := range all {
		byType[s.Type]++
	}
	want := map[Type]int{Filter: 5, Projection: 5, MultiLLM: 2, Aggregation: 2, RAGQA: 2}
	for ty, n := range want {
		if byType[ty] != n {
			t.Errorf("%s: %d queries, want %d", ty, byType[ty], n)
		}
	}
	if _, err := ByName("movies-multi-projection"); err != nil {
		t.Error("second stage not resolvable")
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown spec accepted")
	}
	if _, err := ForDataset("Movies", Filter); err != nil {
		t.Error("ForDataset lookup failed")
	}
	if _, err := ForDataset("Movies", RAGQA); err == nil {
		t.Error("impossible dataset/type combination accepted")
	}
}

func TestOutTokensDeterministicAndBounded(t *testing.T) {
	s, _ := ByName("products-projection") // mean 107
	for src := 0; src < 200; src++ {
		a, b := s.OutTokensFor(src), s.OutTokensFor(src)
		if a != b {
			t.Fatal("output budget nondeterministic")
		}
		if a < 107-40 || a > 107+40 {
			t.Fatalf("row %d: out tokens %d too far from mean 107", src, a)
		}
	}
	f, _ := ByName("movies-filter")
	if f.OutTokensFor(3) < 1 {
		t.Error("filter output below 1 token")
	}
}

// TestOutTokensFollowRowKeys: with content-derived row keys, a row's budget
// is a function of its key alone, so the same row at two positions of two
// stages gets one budget; different keys still spread over the ±25 % band.
func TestOutTokensFollowRowKeys(t *testing.T) {
	s, _ := ByName("products-projection")
	keys := []uint64{11, 22, 33, 44, 55, 66, 77, 88}
	a, b := s, s
	a.RowKeys = func(row int) uint64 { return keys[row] }
	b.RowKeys = func(row int) uint64 { return keys[len(keys)-1-row] }
	seen := map[int]bool{}
	for row := range keys {
		got, want := b.OutTokensFor(len(keys)-1-row), a.OutTokensFor(row)
		if got != want {
			t.Errorf("key %d: budget %d at position %d, %d at position %d", keys[row], got, len(keys)-1-row, want, row)
		}
		seen[want] = true
	}
	if len(seen) < 2 {
		t.Errorf("eight keys share one budget %v", seen)
	}
}

func TestRunFilterQueryAllPolicies(t *testing.T) {
	d := datagen.Movies(genOpt)
	spec, _ := ByName("movies-filter")
	var jcts []float64
	for _, p := range Policies {
		res, err := RunContext(context.Background(), spec, d.Table, cfgFor(p))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(res.Outputs) != d.Table.NumRows() {
			t.Fatalf("%s: %d outputs for %d rows", p, len(res.Outputs), d.Table.NumRows())
		}
		for i, out := range res.Outputs {
			if out != "Yes" && out != "No" {
				t.Fatalf("%s row %d: invalid output %q", p, i, out)
			}
		}
		if len(res.Passing) == 0 || len(res.Passing) == d.Table.NumRows() {
			t.Errorf("%s: degenerate filter pass count %d", p, len(res.Passing))
		}
		jcts = append(jcts, res.JCT)
	}
	noCache, orig, ggr := jcts[0], jcts[1], jcts[2]
	if !(ggr < orig && orig < noCache) {
		t.Errorf("JCT ordering violated: nocache %.1f, original %.1f, ggr %.1f", noCache, orig, ggr)
	}
}

func TestGGRImprovesHitRate(t *testing.T) {
	// At tiny scales the whole working set fits in KV memory and even the
	// original order hits well; shrink the GPU so eviction is live, as it is
	// at full scale (80+ BIRD posts × ~600 tokens ≫ pool).
	d := datagen.BIRD(genOpt)
	spec, _ := ByName("bird-filter")
	smallGPU := llmsim.Cluster{
		GPU:   llmsim.GPUSpec{Name: "L4-small", MemBytes: 18.5e9, FLOPS: 121e12, Bandwidth: 300e9},
		Count: 1, TPEfficiency: 1,
	}
	cfg := func(p Policy) Config {
		return Config{Policy: p, Model: llmsim.Llama3_8B, Cluster: smallGPU}
	}
	orig, err := RunContext(context.Background(), spec, d.Table, cfg(CacheOriginal))
	if err != nil {
		t.Fatal(err)
	}
	ggr, err := RunContext(context.Background(), spec, d.Table, cfg(CacheGGR))
	if err != nil {
		t.Fatal(err)
	}
	if ggr.HitRate <= orig.HitRate {
		t.Errorf("GGR hit rate %.2f not above original %.2f", ggr.HitRate, orig.HitRate)
	}
	if ggr.HitRate < 0.5 {
		t.Errorf("GGR hit rate %.2f implausibly low for BIRD", ggr.HitRate)
	}
}

func TestAggregationQuery(t *testing.T) {
	d := datagen.Products(genOpt)
	spec, _ := ByName("products-agg")
	res, err := RunContext(context.Background(), spec, d.Table, cfgFor(CacheGGR))
	if err != nil {
		t.Fatal(err)
	}
	if res.Average < 1 || res.Average > 5 {
		t.Errorf("average score %.2f outside [1,5]", res.Average)
	}
	for i, out := range res.Outputs {
		v, err := strconv.Atoi(out)
		if err != nil || v < 1 || v > 5 {
			t.Fatalf("row %d: invalid score %q", i, out)
		}
	}
}

func TestMultiLLMQuery(t *testing.T) {
	d := datagen.Movies(genOpt)
	spec, _ := ByName("movies-multi")
	res, err := RunContext(context.Background(), spec, d.Table, cfgFor(CacheGGR))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stages) != 2 {
		t.Fatalf("multi query ran %d stages", len(res.Stages))
	}
	if res.Stages[1].Rows != len(res.Passing) {
		t.Errorf("second stage saw %d rows, filter passed %d", res.Stages[1].Rows, len(res.Passing))
	}
	if res.Stages[1].Rows == 0 {
		t.Error("no rows passed the sentiment filter")
	}
	if res.JCT <= res.Stages[0].Metrics.JCT {
		t.Error("total JCT must include both stages")
	}
	// Second stage outputs free text for passing rows only.
	if got := len(res.Outputs); got != res.Stages[1].Rows {
		t.Errorf("final outputs %d != second stage rows %d", got, res.Stages[1].Rows)
	}
}

func TestProjectionOutputsFreeText(t *testing.T) {
	d := datagen.Beer(genOpt)
	spec, _ := ByName("beer-projection")
	res, err := RunContext(context.Background(), spec, d.Table, cfgFor(CacheOriginal))
	if err != nil {
		t.Fatal(err)
	}
	for i, out := range res.Outputs {
		if out == "" {
			t.Fatalf("row %d: empty projection output", i)
		}
	}
}

func TestBuildRAGTable(t *testing.T) {
	d := datagen.FEVER(genOpt)
	tbl, err := BuildRAGTable(d)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumCols() != 1+d.K {
		t.Fatalf("RAG table has %d cols, want %d", tbl.NumCols(), 1+d.K)
	}
	if tbl.Columns()[0] != "claim" || tbl.Columns()[1] != "evidence1" {
		t.Errorf("column names = %v", tbl.Columns())
	}
	if tbl.NumRows() != d.Questions.NumRows() {
		t.Errorf("rows = %d, want %d", tbl.NumRows(), d.Questions.NumRows())
	}
	if _, ok := tbl.Hidden("label"); !ok {
		t.Error("labels lost in RAG join")
	}
	// Retrieval quality: most questions should retrieve contexts of their
	// own topic (contexts embed the topic keywords).
	topics, _ := tbl.Hidden("topic")
	ei, _ := tbl.ColIndex("evidence1")
	hits := 0
	for i := 0; i < tbl.NumRows(); i++ {
		// Topic keywords embed the topic id as a 3-digit suffix.
		if strings.Contains(tbl.Cell(i, ei), topicTag(topics[i])) {
			hits++
		}
	}
	if ratio := float64(hits) / float64(tbl.NumRows()); ratio < 0.8 {
		t.Errorf("only %.0f%% of questions retrieved own-topic evidence", 100*ratio)
	}
}

// topicTag recovers the zero-padded keyword suffix tied to a topic id.
func topicTag(topic string) string {
	n, _ := strconv.Atoi(topic)
	return fmt.Sprintf("%03d", n)
}

func TestRAGQueryEndToEnd(t *testing.T) {
	d := datagen.FEVER(genOpt)
	spec, _ := ByName("fever-rag")
	tbl, err := BuildRAGTable(d)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunContext(context.Background(), spec, tbl, cfgFor(CacheGGR))
	if err != nil {
		t.Fatal(err)
	}
	valid := map[string]bool{"SUPPORTS": true, "REFUTES": true, "NOT ENOUGH INFO": true}
	for i, out := range res.Outputs {
		if !valid[out] {
			t.Fatalf("row %d: invalid RAG answer %q", i, out)
		}
	}
	orig, err := RunContext(context.Background(), spec, tbl, cfgFor(CacheOriginal))
	if err != nil {
		t.Fatal(err)
	}
	if res.HitRate <= orig.HitRate {
		t.Errorf("RAG GGR hit rate %.2f not above original %.2f", res.HitRate, orig.HitRate)
	}
}

func TestEmptyTableStage(t *testing.T) {
	d := datagen.Movies(genOpt)
	spec, _ := ByName("movies-filter")
	empty := d.Table.Head(0)
	res, err := RunStageContext(context.Background(), spec, empty, cfgFor(CacheGGR))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 0 || len(res.Outputs) != 0 {
		t.Errorf("empty stage produced %d rows", res.Rows)
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	d := datagen.Movies(genOpt)
	spec, _ := ByName("movies-filter")
	cfg := cfgFor(Policy("bogus"))
	if _, err := RunContext(context.Background(), spec, d.Table, cfg); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestKeyFieldRelPos(t *testing.T) {
	cells := []core.Cell{{Field: "a"}, {Field: "b"}, {Field: "c"}}
	if p := KeyFieldRelPos(cells, "a"); p != 0 {
		t.Errorf("first field relPos = %f", p)
	}
	if p := KeyFieldRelPos(cells, "c"); p != 1 {
		t.Errorf("last field relPos = %f", p)
	}
	if p := KeyFieldRelPos(cells, "b"); p != 0.5 {
		t.Errorf("middle field relPos = %f", p)
	}
	if p := KeyFieldRelPos(cells, "zzz"); p != 0.5 {
		t.Errorf("missing field relPos = %f", p)
	}
	if p := KeyFieldRelPos(cells[:1], "a"); p != 0.5 {
		t.Errorf("single-field relPos = %f", p)
	}
}

func TestAnswersConsistentAcrossPolicies(t *testing.T) {
	// The oracle draw is keyed by source row, so for a dataset with zero
	// position coefficient the answers must be identical across schedules.
	d := datagen.BIRD(genOpt) // 8B BIRD coefficient is 0.00
	spec, _ := ByName("bird-filter")
	a, err := RunContext(context.Background(), spec, d.Table, cfgFor(CacheOriginal))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), spec, d.Table, cfgFor(CacheGGR))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Outputs {
		if a.Outputs[i] != b.Outputs[i] {
			t.Fatalf("row %d: answers differ (%q vs %q) despite zero position effect",
				i, a.Outputs[i], b.Outputs[i])
		}
	}
}

func TestBestFixedPolicyRuns(t *testing.T) {
	d := datagen.Movies(genOpt)
	spec, _ := ByName("movies-filter")
	res, err := RunContext(context.Background(), spec, d.Table, cfgFor(CacheBestFixed))
	if err != nil {
		t.Fatal(err)
	}
	if res.HitRate <= 0 {
		t.Error("best-fixed policy produced zero hit rate")
	}
}
