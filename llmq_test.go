package llmq

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/server"
)

func TestReorderFacade(t *testing.T) {
	tb := NewTable("entity", "note")
	tb.MustAppendRow("shared-entity-description", "alpha")
	tb.MustAppendRow("another-entity-altogether", "beta")
	tb.MustAppendRow("shared-entity-description", "gamma")
	res, err := Reorder(tb, ReorderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.PHC <= 0 {
		t.Errorf("PHC = %d, want positive (two rows share an entity)", res.PHC)
	}
	if got := PHC(res.Schedule); got != res.PHC {
		t.Errorf("PHC() = %d, result says %d", got, res.PHC)
	}
	if HitRate(res.Schedule) <= HitRate(OriginalSchedule(tb)) {
		t.Error("reordering did not improve hit rate")
	}
}

// fig1Tables are the paper's two case-study shapes (Sec. 3.2), small enough
// for OPHR: 1a has a unique first field before constant ones, 1b one group
// per field on disjoint row ranges.
func fig1Tables() map[string]*Table {
	a := NewTable("f0", "f1", "f2", "f3")
	for i := 0; i < 5; i++ {
		a.MustAppendRow(fmt.Sprintf("u%d", i), "B", "C", "D")
	}
	b := NewTable("f0", "f1", "f2")
	for g := 0; g < 3; g++ {
		for i := 0; i < 2; i++ {
			cells := []string{fmt.Sprintf("p%d%d", g, i), fmt.Sprintf("q%d%d", g, i), fmt.Sprintf("r%d%d", g, i)}
			cells[g] = string(rune('G' + g))
			b.MustAppendRow(cells...)
		}
	}
	return map[string]*Table{"fig1a": a, "fig1b": b}
}

// TestReorderAlgorithms holds the three doors to core.Solve to one answer:
// on every table and algorithm, the library, POST /v1/reorder and
// `reorder -stats-only` report the same PHC.
func TestReorderAlgorithms(t *testing.T) {
	tb := NewTable("a", "b")
	tb.MustAppendRow("x", "1")
	tb.MustAppendRow("x", "2")
	tb.MustAppendRow("y", "1")
	for _, alg := range []Algorithm{GGR, OPHR, BestFixed} {
		res, err := Reorder(tb, ReorderOptions{Algorithm: alg, CharLengths: true})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if len(res.Schedule.Rows) != 3 {
			t.Fatalf("%s: %d rows", alg, len(res.Schedule.Rows))
		}
	}
	if _, err := Reorder(tb, ReorderOptions{Algorithm: "nope"}); err == nil {
		t.Error("unknown algorithm accepted")
	}

	bin := filepath.Join(t.TempDir(), "reorder")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/reorder").CombinedOutput(); err != nil {
		t.Fatalf("build cmd/reorder: %v\n%s", err, out)
	}
	h := server.NewWithConfig(server.Config{})
	for name, tb := range fig1Tables() {
		var csv strings.Builder
		if err := tb.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		tj := server.TableJSON{Columns: tb.Columns()}
		for r := 0; r < tb.NumRows(); r++ {
			tj.Rows = append(tj.Rows, tb.Row(r))
		}
		for _, alg := range []Algorithm{GGR, OPHR, BestFixed} {
			lib, err := Reorder(tb, ReorderOptions{Algorithm: alg})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, alg, err)
			}

			body, _ := json.Marshal(server.ReorderRequest{Table: tj, Algorithm: string(alg)})
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/reorder", bytes.NewReader(body)))
			var resp server.ReorderResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
				t.Fatalf("%s/%s: /v1/reorder status %d (%v): %s", name, alg, rec.Code, err, rec.Body)
			}
			if resp.PHC != lib.PHC {
				t.Errorf("%s/%s: /v1/reorder PHC %d, llmq.Reorder %d", name, alg, resp.PHC, lib.PHC)
			}

			cmd := exec.Command(bin, "-algorithm", string(alg), "-stats-only")
			cmd.Stdin = strings.NewReader(csv.String())
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%s/%s: reorder -stats-only: %v\n%s", name, alg, err, out)
			}
			if want := fmt.Sprintf("%s=%d\n", alg, lib.PHC); !strings.Contains(string(out), want) {
				t.Errorf("%s/%s: reorder -stats-only printed\n%swant a PHC line ending %q", name, alg, out, want)
			}
		}
	}
}

func TestFacadeDatasets(t *testing.T) {
	tb, err := Dataset("Movies", 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() == 0 || tb.NumCols() != 8 {
		t.Errorf("Movies: %dx%d", tb.NumRows(), tb.NumCols())
	}
	if _, err := Dataset("nope", 0.01, 1); err == nil {
		t.Error("unknown dataset accepted")
	}
	rag, err := RAGDataset("FEVER", 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rag.NumCols() != 5 {
		t.Errorf("FEVER join has %d cols", rag.NumCols())
	}
}

func TestFacadeQueryRoundTrip(t *testing.T) {
	tb, err := Dataset("Beer", 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := QueryByName("beer-filter")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunQuery(spec, tb, QueryConfig{Policy: PolicyCacheGGR})
	if err != nil {
		t.Fatal(err)
	}
	if res.JCT <= 0 || len(res.Outputs) != tb.NumRows() {
		t.Errorf("JCT=%f outputs=%d", res.JCT, len(res.Outputs))
	}
	if len(Queries()) != 16 {
		t.Errorf("suite has %d queries", len(Queries()))
	}
}

func TestFacadeSavings(t *testing.T) {
	if s := EstimateSavings(GPT4oMini, 0.1, 0.8); s <= 0 {
		t.Errorf("savings = %f", s)
	}
	if s := EstimateSavings(Claude35Sonnet, 0.1, 0.8); s <= 0 {
		t.Errorf("anthropic savings = %f", s)
	}
}

func TestFacadeExperiments(t *testing.T) {
	ids := Experiments()
	if len(ids) < 14 {
		t.Fatalf("only %d experiments", len(ids))
	}
	rep, err := RunExperiment("fig1a", ExperimentConfig{Scale: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "fig1a" {
		t.Errorf("report id %q", rep.ID)
	}
}

func TestTokenLen(t *testing.T) {
	if TokenLen("") != 0 {
		t.Error("empty string has tokens")
	}
	if TokenLen("hello world") != 2 {
		t.Errorf("TokenLen = %d", TokenLen("hello world"))
	}
}

func TestExecSQLFacade(t *testing.T) {
	tb := NewTable("name", "bio")
	tb.MustAppendRow("alpha", "a shared biography text")
	tb.MustAppendRow("beta", "a shared biography text")
	res, err := ExecSQL(`SELECT name, LLM('Summarize', bio) AS s FROM people`, "people", tb,
		SQLConfig{Config: QueryConfig{Policy: PolicyCacheGGR}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Columns[1] != "s" {
		t.Fatalf("result = %+v", res)
	}
	if res.JCT <= 0 {
		t.Error("no serving time")
	}
	if _, err := ExecSQL(`SELECT missing FROM people`, "people", tb, SQLConfig{}); err == nil {
		t.Error("invalid SQL accepted")
	}
}

// TestExecSQLFullDialect runs one statement combining every grown operator —
// a plain-column predicate pushed below an AND-joined LLM predicate, a
// repeated (deduplicated) LLM aggregate, GROUP BY, and ORDER BY ... LIMIT —
// and checks that the planned execution issues strictly fewer LLM calls than
// the naive plan of the same statement.
func TestExecSQLFullDialect(t *testing.T) {
	tb := NewTable("ticket_id", "region", "request", "support_response")
	for i := 0; i < 30; i++ {
		region := "emea"
		if i >= 18 {
			region = "apac"
		}
		// Responses vary per row: the simulated model answers by content, so
		// identical inputs get identical answers (as a real model would).
		tb.MustAppendRow(
			fmt.Sprintf("T-%d", 100+i),
			region,
			fmt.Sprintf("Request %d about an account issue", i),
			fmt.Sprintf("We reset password %d and emailed a confirmation link.", i),
		)
	}

	sql := `SELECT region, COUNT(*) AS n,
	               AVG(LLM('Rate the request urgency 1-5', request)) AS urgency,
	               MAX(LLM('Rate the request urgency 1-5', request)) AS worst
	        FROM tickets
	        WHERE region <> 'noise' AND LLM('Is the reply helpful?', support_response) = 'Yes'
	        GROUP BY region ORDER BY n DESC LIMIT 2`
	cfg := SQLConfig{Config: QueryConfig{Policy: PolicyCacheGGR}}
	res, err := ExecSQL(sql, "tickets", tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"region", "n", "urgency", "worst"}; len(res.Columns) != 4 ||
		res.Columns[1] != want[1] || res.Columns[2] != want[2] {
		t.Fatalf("columns = %v", res.Columns)
	}
	if len(res.Rows) == 0 || len(res.Rows) > 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// The repeated urgency call must have run once: one filter stage plus
	// one aggregation stage.
	if res.Stages != 2 {
		t.Errorf("stages = %d, want 2", res.Stages)
	}

	naiveCfg := cfg
	naiveCfg.Naive = true
	naive, err := ExecSQL(sql, "tickets", tb, naiveCfg)
	if err != nil {
		t.Fatal(err)
	}
	if naive.Stages != 3 {
		t.Errorf("naive stages = %d, want 3", naive.Stages)
	}
	if res.LLMCalls >= naive.LLMCalls {
		t.Errorf("planner did not save calls: planned %d, naive %d", res.LLMCalls, naive.LLMCalls)
	}
}

// TestExecSQLRejectsJoins: the single-table convenience routes multi-table
// statements to SQLDB with a targeted error instead of a parse failure.
func TestExecSQLRejectsJoins(t *testing.T) {
	tb := NewTable("k", "v")
	tb.MustAppendRow("1", "x")
	_, err := ExecSQL(`SELECT a.v FROM t AS a JOIN t AS b ON a.k = b.k`, "t", tb, SQLConfig{})
	if err == nil {
		t.Fatal("multi-table statement accepted by ExecSQL")
	}
	if want := "SQLDB"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not point at %s", err, want)
	}

	// The same statement runs on a SQLDB.
	db := NewSQLDB()
	db.Register("t", tb)
	res, err := db.Exec(`SELECT a.v FROM t AS a JOIN t AS b ON a.k = b.k`, SQLConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "x" {
		t.Errorf("rows = %v", res.Rows)
	}

	// An unregistered table fails with a clear registry error.
	_, err = db.Exec(`SELECT v FROM elsewhere`, SQLConfig{})
	if err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Errorf("unregistered-table error = %v", err)
	}
}

func TestAdviseFacade(t *testing.T) {
	tb := NewTable("unique", "shared")
	for i := 0; i < 20; i++ {
		tb.MustAppendRow(fmt.Sprintf("u-%d", i), "a long shared description value")
	}
	adv := Advise(tb, 0)
	if !adv.Reorder {
		t.Errorf("advisor declined: %+v", adv)
	}
	flat := NewTable("a")
	flat.MustAppendRow("x1")
	flat.MustAppendRow("y2")
	if Advise(flat, 0).Reorder {
		t.Error("advisor recommended a repetition-free table")
	}
}

// TestBackendFacade covers the public Backend seam: a recording backend
// observes the batches a statement serves, results are identical to the
// default per-batch engine, and a canceled context stops execution with
// context.Canceled.
func TestBackendFacade(t *testing.T) {
	tb := NewTable("ticket", "request")
	for i := 0; i < 9; i++ {
		tb.MustAppendRow(fmt.Sprintf("T-%d", i), fmt.Sprintf("please fix defect %d", i%4))
	}
	sql := `SELECT ticket, LLM('Is this urgent?', request) AS urgent FROM tickets`

	base, err := ExecSQL(sql, "tickets", tb, SQLConfig{})
	if err != nil {
		t.Fatal(err)
	}

	rec := NewRecordingBackend(NewPersistentBackend(2))
	defer rec.Close()
	cfg := SQLConfig{}
	cfg.Backend = rec
	res, err := ExecSQL(sql, "tickets", tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Rows) != fmt.Sprint(base.Rows) {
		t.Errorf("backend changed results:\nwant %v\ngot  %v", base.Rows, res.Rows)
	}
	batches := rec.Batches()
	if len(batches) != 1 {
		t.Fatalf("recorded %d batches, want 1", len(batches))
	}
	if batches[0].Rows != res.LLMCalls {
		t.Errorf("recorded rows = %d, statement reported %d calls", batches[0].Rows, res.LLMCalls)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExecSQLContext(ctx, sql, "tickets", tb, SQLConfig{}); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled ExecSQLContext returned %v, want context.Canceled", err)
	}
}
