package datagen

import (
	"testing"

	"repro/internal/table"
	"repro/internal/tokenizer"
)

var small = Options{Scale: 0.02, Seed: 1}

func TestRelationalShapes(t *testing.T) {
	cases := []struct {
		name   string
		fields int
	}{
		{"Movies", 8}, {"Products", 8}, {"BIRD", 4}, {"PDMX", 57}, {"Beer", 8},
	}
	for _, c := range cases {
		d, err := RelationalByName(c.name, small)
		if err != nil {
			t.Fatal(err)
		}
		if d.Table.NumCols() != c.fields {
			t.Errorf("%s: %d fields, want %d", c.name, d.Table.NumCols(), c.fields)
		}
		if d.Table.NumRows() < 50 {
			t.Errorf("%s: only %d rows at scale %.2f", c.name, d.Table.NumRows(), small.Scale)
		}
		if _, ok := d.Table.Hidden("label"); !ok {
			t.Errorf("%s: missing label column", c.name)
		}
	}
}

func TestDeclaredFDsActuallyHold(t *testing.T) {
	for _, name := range RelationalNames {
		d, err := RelationalByName(name, small)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Table.FDs().Validate(d.Table); err != nil {
			t.Errorf("%s: declared FD violated: %v", name, err)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, name := range RelationalNames {
		a, _ := RelationalByName(name, small)
		b, _ := RelationalByName(name, small)
		if a.Table.NumRows() != b.Table.NumRows() {
			t.Fatalf("%s: row counts differ", name)
		}
		for i := 0; i < a.Table.NumRows(); i += 37 {
			for j := 0; j < a.Table.NumCols(); j++ {
				if a.Table.Cell(i, j) != b.Table.Cell(i, j) {
					t.Fatalf("%s: cell (%d,%d) differs across runs", name, i, j)
				}
			}
		}
	}
}

func TestSeedsProduceDifferentData(t *testing.T) {
	a := Movies(Options{Scale: 0.02, Seed: 1})
	b := Movies(Options{Scale: 0.02, Seed: 2})
	same := 0
	for i := 0; i < a.Table.NumRows() && i < b.Table.NumRows(); i++ {
		if a.Table.Cell(i, 1) == b.Table.Cell(i, 1) {
			same++
		}
	}
	if same == a.Table.NumRows() {
		t.Error("different seeds produced identical movieinfo columns")
	}
}

func TestEntityRepetitionStructure(t *testing.T) {
	// The datasets must have far fewer entities than rows: that repetition
	// is the raw material for prefix caching.
	type probe struct{ name, col string }
	for _, p := range []probe{
		{"Movies", "movieinfo"}, {"Products", "description"},
		{"BIRD", "Body"}, {"Beer", "beer/beerId"}, {"PDMX", "text"},
	} {
		d, err := RelationalByName(p.name, small)
		if err != nil {
			t.Fatal(err)
		}
		ci, ok := d.Table.ColIndex(p.col)
		if !ok {
			t.Fatalf("%s: missing column %s", p.name, p.col)
		}
		distinct := map[string]bool{}
		for i := 0; i < d.Table.NumRows(); i++ {
			distinct[d.Table.Cell(i, ci)] = true
		}
		ratio := float64(len(distinct)) / float64(d.Table.NumRows())
		if ratio > 0.6 {
			t.Errorf("%s.%s: %d distinct over %d rows (%.2f) — not enough repetition",
				p.name, p.col, len(distinct), d.Table.NumRows(), ratio)
		}
	}
}

func TestTokenBudgetsRoughlyMatchTable1(t *testing.T) {
	// Data-token averages per row (prompt scaffolding excluded) should be in
	// the right regime for each dataset: these drive the input_avg column of
	// Table 1. Wide tolerances — we check regime, not point values.
	bounds := map[string][2]float64{
		"Movies":   {120, 320},
		"Products": {200, 420},
		"BIRD":     {550, 900},
		"PDMX":     {350, 800},
		"Beer":     {40, 180},
	}
	for name, b := range bounds {
		d, err := RelationalByName(name, small)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		rows := d.Table.NumRows()
		for i := 0; i < rows; i++ {
			for j := 0; j < d.Table.NumCols(); j++ {
				total += int64(tokenizer.Count(d.Table.Cell(i, j)))
			}
		}
		avg := float64(total) / float64(rows)
		if avg < b[0] || avg > b[1] {
			t.Errorf("%s: avg data tokens/row = %.0f, want within [%v, %v]", name, avg, b[0], b[1])
		}
	}
}

func TestLabelsAreValid(t *testing.T) {
	valid := map[string]map[string]bool{
		"Movies":   {"Yes": true, "No": true},
		"Products": {"POSITIVE": true, "NEGATIVE": true, "NEUTRAL": true},
		"BIRD":     {"YES": true, "NO": true},
		"PDMX":     {"YES": true, "NO": true},
		"Beer":     {"YES": true, "NO": true},
	}
	for name, ok := range valid {
		d, err := RelationalByName(name, small)
		if err != nil {
			t.Fatal(err)
		}
		labels, _ := d.Table.Hidden("label")
		for i, l := range labels {
			if !ok[l] {
				t.Fatalf("%s row %d: invalid label %q", name, i, l)
			}
		}
	}
}

func TestBeerLabelConsistentWithStyle(t *testing.T) {
	d := Beer(small)
	ci, _ := d.Table.ColIndex("beer/style")
	labels, _ := d.Table.Hidden("label")
	// Same style string must always produce the same label.
	seen := map[string]string{}
	for i := 0; i < d.Table.NumRows(); i++ {
		style := d.Table.Cell(i, ci)
		if prev, ok := seen[style]; ok && prev != labels[i] {
			t.Fatalf("style %q labelled both %s and %s", style, prev, labels[i])
		}
		seen[style] = labels[i]
	}
}

func TestRAGShapes(t *testing.T) {
	for _, name := range RAGNames {
		d, err := RAGByName(name, small)
		if err != nil {
			t.Fatal(err)
		}
		if d.Questions.NumRows() < 50 {
			t.Errorf("%s: %d questions", name, d.Questions.NumRows())
		}
		if len(d.Corpus) < 20 {
			t.Errorf("%s: corpus %d", name, len(d.Corpus))
		}
		if d.K < 4 || d.K > 5 {
			t.Errorf("%s: k = %d", name, d.K)
		}
		if _, ok := d.Questions.ColIndex(d.QuestionField); !ok {
			t.Errorf("%s: question field %q missing", name, d.QuestionField)
		}
		if _, ok := d.Questions.Hidden("label"); !ok {
			t.Errorf("%s: labels missing", name)
		}
		if _, ok := d.Questions.Hidden("topic"); !ok {
			t.Errorf("%s: topics missing", name)
		}
	}
}

func TestFEVERLabelDistribution(t *testing.T) {
	d := FEVER(small)
	labels, _ := d.Questions.Hidden("label")
	counts := map[string]int{}
	for _, l := range labels {
		counts[l]++
	}
	for _, want := range []string{"SUPPORTS", "REFUTES", "NOT ENOUGH INFO"} {
		if counts[want] == 0 {
			t.Errorf("label %q never generated", want)
		}
	}
	if len(counts) != 3 {
		t.Errorf("unexpected labels: %v", counts)
	}
}

func TestRAGTopicSharing(t *testing.T) {
	// Multiple questions must target the same topic — without that, RAG
	// context reuse (the experiment's premise) cannot exist.
	d := FEVER(small)
	topics, _ := d.Questions.Hidden("topic")
	counts := map[string]int{}
	for _, tp := range topics {
		counts[tp]++
	}
	multi := 0
	for _, c := range counts {
		if c >= 2 {
			multi++
		}
	}
	if multi < len(counts)/4 {
		t.Errorf("only %d/%d topics have ≥2 questions", multi, len(counts))
	}
}

func TestRegistryErrors(t *testing.T) {
	if _, err := RelationalByName("nope", small); err == nil {
		t.Error("unknown relational name accepted")
	}
	if _, err := RAGByName("nope", small); err == nil {
		t.Error("unknown RAG name accepted")
	}
	if len(AllNames()) != 7 {
		t.Errorf("AllNames = %v", AllNames())
	}
}

func TestScaleControlsRows(t *testing.T) {
	a := Movies(Options{Scale: 0.01, Seed: 1})
	b := Movies(Options{Scale: 0.05, Seed: 1})
	if b.Table.NumRows() <= a.Table.NumRows() {
		t.Errorf("scale not monotone: %d vs %d", a.Table.NumRows(), b.Table.NumRows())
	}
	full := Options{Seed: 1} // default scale = 1
	if got := full.scaled(15000); got != 15000 {
		t.Errorf("default scale: %d", got)
	}
}

func TestStatsFavorEntityColumns(t *testing.T) {
	// Sanity for the solver: on Movies, the stats score of movieinfo (long,
	// repeated) must dominate reviewcontent (long, unique).
	d := Movies(small)
	s := table.ComputeStats(d.Table, tokenizer.Count)
	if s.Score("movieinfo") <= s.Score("reviewcontent") {
		t.Errorf("movieinfo score %.1f not above reviewcontent %.1f",
			s.Score("movieinfo"), s.Score("reviewcontent"))
	}
}
