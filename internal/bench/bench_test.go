package bench

import (
	"context"
	"strconv"
	"strings"
	"testing"
)

// tiny keeps every experiment fast enough for CI.
var tiny = Config{Scale: 0.01, Seed: 3, BootstrapReps: 200, OPHRNodeBudget: 200_000}

func TestAllExperimentsRun(t *testing.T) {
	for _, id := range Experiments() {
		id := id
		t.Run(id, func(t *testing.T) {
			rep, err := RunContext(context.Background(), id, tiny)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if rep.ID != id {
				t.Errorf("report id %q != %q", rep.ID, id)
			}
			if len(rep.Rows) == 0 {
				t.Errorf("%s: empty report", id)
			}
			for i, row := range rep.Rows {
				if len(row) != len(rep.Columns) {
					t.Errorf("%s row %d: %d cells for %d columns", id, i, len(row), len(rep.Columns))
				}
			}
			if !strings.Contains(rep.Text(), rep.Title) {
				t.Errorf("%s: Text() missing title", id)
			}
			if lines := strings.Count(rep.CSV(), "\n"); lines != len(rep.Rows)+1 {
				t.Errorf("%s: CSV has %d lines, want %d", id, lines, len(rep.Rows)+1)
			}
		})
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := RunContext(context.Background(), "fig99", tiny); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFig1aExactValues(t *testing.T) {
	rep, err := RunContext(context.Background(), "fig1a", tiny)
	if err != nil {
		t.Fatal(err)
	}
	// Fixed original must be 0; GGR must equal the theory column.
	if rep.Rows[0][1] != "0" {
		t.Errorf("fixed PHC = %s, want 0", rep.Rows[0][1])
	}
	if rep.Rows[1][1] != rep.Rows[1][2] {
		t.Errorf("GGR PHC %s != theory %s", rep.Rows[1][1], rep.Rows[1][2])
	}
}

func TestFig1bExactValues(t *testing.T) {
	rep, err := RunContext(context.Background(), "fig1b", tiny)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rep.Rows {
		if row[1] != row[2] {
			t.Errorf("row %d: PHC %s != theory %s", i, row[1], row[2])
		}
	}
}

func TestFig3aSpeedupDirection(t *testing.T) {
	rep, err := RunContext(context.Background(), "fig3a", tiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		noCache := parseF(t, row[1])
		orig := parseF(t, row[2])
		ggr := parseF(t, row[3])
		if !(ggr <= orig && orig <= noCache) {
			t.Errorf("%s: expected GGR <= Orig <= NoCache, got %v %v %v", row[0], noCache, orig, ggr)
		}
	}
}

func TestTable2GGRWins(t *testing.T) {
	rep, err := RunContext(context.Background(), "table2", tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 7 {
		t.Fatalf("table2 has %d rows, want 7", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		orig := parsePct(row[1])
		ggr := parsePct(row[2])
		if ggr < orig {
			t.Errorf("%s: GGR PHR %.2f below original %.2f", row[0], ggr, orig)
		}
	}
}

func TestTable4SavingsPositive(t *testing.T) {
	rep, err := RunContext(context.Background(), "table4", tiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		if oa := parsePct(row[3]); oa <= 0 {
			t.Errorf("%s: OpenAI savings %.3f not positive", row[0], oa)
		}
	}
}

func TestTable6GGRNearOptimal(t *testing.T) {
	rep, err := RunContext(context.Background(), "table6", tiny)
	if err != nil {
		t.Fatal(err)
	}
	completed := 0
	for _, row := range rep.Rows {
		if row[1] == "n/a" {
			continue
		}
		completed++
		opt := parsePct(row[1])
		ggr := parsePct(row[2])
		if ggr > opt+1e-9 {
			t.Errorf("%s: GGR %.4f above optimal %.4f", row[0], ggr, opt)
		}
	}
	if completed == 0 {
		t.Error("OPHR completed on no samples; budget too small")
	}
}

func TestDatasetMemoization(t *testing.T) {
	a, err := relational("Movies", tiny)
	if err != nil {
		t.Fatal(err)
	}
	b, err := relational("Movies", tiny)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("relational datasets not memoized")
	}
	ra, err := ragTable("FEVER", tiny)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := ragTable("FEVER", tiny)
	if err != nil {
		t.Fatal(err)
	}
	if ra != rb {
		t.Error("RAG tables not memoized")
	}
}

func TestReportRenderers(t *testing.T) {
	rep := &Report{
		ID: "x", Title: "T", Columns: []string{"a", "b"},
		Rows:  [][]string{{"1", "with,comma"}, {"2", "with \"quote\""}},
		Notes: []string{"a note"},
	}
	txt := rep.Text()
	if !strings.Contains(txt, "a note") {
		t.Error("note missing from text")
	}
	csv := rep.CSV()
	if !strings.Contains(csv, `"with,comma"`) {
		t.Error("CSV comma not quoted")
	}
	if !strings.Contains(csv, `"with ""quote"""`) {
		t.Error("CSV quote not escaped")
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}
