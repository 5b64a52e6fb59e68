// Conformance suite for the Backend seam: every shipped backend must return
// result relations byte-identical to the sequential oracle (the default
// per-batch engine), report the same model-call counts, honor context
// cancellation, and stay race-clean (CI runs this package under -race).
package backend_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/backend"
	"repro/internal/query"
	"repro/internal/sqlfront"
	"repro/internal/table"
)

func ticketsTable(rows int) *table.Table {
	t := table.New("ticket_id", "region", "request", "response")
	regions := []string{"emea", "amer", "apac"}
	for i := 0; i < rows; i++ {
		t.MustAppendRow(
			fmt.Sprintf("T-%04d", i),
			regions[i%len(regions)],
			fmt.Sprintf("my device model %d stopped working after the update", i%7),
			fmt.Sprintf("we suggest resetting configuration profile %d and retrying", i%5),
		)
	}
	return t
}

var conformanceStatements = []string{
	`SELECT ticket_id, LLM('Did the response resolve the request?', request, response) AS ok
	 FROM tickets WHERE region = 'emea'`,
	`SELECT ticket_id FROM tickets
	 WHERE LLM('Is the request about a hardware fault?', request) = 'Yes' AND region <> 'apac'`,
	`SELECT region, COUNT(*) AS n, AVG(LLM('Rate the anger 1-5.', request)) AS anger
	 FROM tickets GROUP BY region ORDER BY n DESC, region`,
}

// backends lists every shipped Backend under test, each built fresh per
// subtest so persistent state never leaks between cases. The sharded
// decorators run over both engine-owning backends so the data-parallel path
// is held to the same result-identity bar.
func backends() map[string]func() backend.Backend {
	mustShard := func(inner backend.Backend) backend.Backend {
		s, err := backend.NewSharded(inner, 3)
		if err != nil {
			panic(err)
		}
		return s
	}
	return map[string]func() backend.Backend{
		"sim":                func() backend.Backend { return backend.NewSim() },
		"persistent":         func() backend.Backend { return backend.NewPersistent(0) },
		"recording":          func() backend.Backend { return backend.NewRecording(nil) },
		"sharded-sim":        func() backend.Backend { return mustShard(backend.NewSim()) },
		"sharded-persistent": func() backend.Backend { return mustShard(backend.NewPersistent(0)) },
		"remote":             newRemoteConformance,
	}
}

// testPrompts is the tokenizer every statement in these tests shares, as a
// Runtime's statements do: without one, each stage tokenizes on its own and
// no backend may reuse KV blocks across statements.
var testPrompts = query.NewPromptCache(0)

func execWith(t *testing.T, be backend.Backend, sql string, naive bool) *sqlfront.Result {
	t.Helper()
	db := sqlfront.NewDB()
	db.Register("tickets", ticketsTable(24))
	res, err := db.Exec(sql, sqlfront.ExecConfig{
		Config: query.Config{Backend: be, PromptCache: testPrompts},
		Naive:  naive,
	})
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	return res
}

// TestConformanceResultIdentity runs the statement set through every
// backend, planned and naive, and requires relations and model-call counts
// identical to the default (sim) oracle.
func TestConformanceResultIdentity(t *testing.T) {
	for _, naive := range []bool{false, true} {
		var want []*sqlfront.Result
		for _, sql := range conformanceStatements {
			want = append(want, execWith(t, nil, sql, naive)) // nil = backend.Default
		}
		for name, mk := range backends() {
			t.Run(fmt.Sprintf("%s/naive=%v", name, naive), func(t *testing.T) {
				be := mk()
				defer be.Close()
				for i, sql := range conformanceStatements {
					got := execWith(t, be, sql, naive)
					if fmt.Sprint(got.Columns) != fmt.Sprint(want[i].Columns) {
						t.Errorf("%q: columns differ: %v vs %v", sql, got.Columns, want[i].Columns)
					}
					if fmt.Sprint(got.Rows) != fmt.Sprint(want[i].Rows) {
						t.Errorf("%q: rows differ\nwant %v\ngot  %v", sql, want[i].Rows, got.Rows)
					}
					if got.LLMCalls != want[i].LLMCalls {
						t.Errorf("%q: model calls = %d, oracle made %d", sql, got.LLMCalls, want[i].LLMCalls)
					}
				}
			})
		}
	}
}

// TestConformanceCancellation requires every backend to refuse a dead
// context with an error wrapping context.Canceled.
func TestConformanceCancellation(t *testing.T) {
	for name, mk := range backends() {
		t.Run(name, func(t *testing.T) {
			be := mk()
			defer be.Close()
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			db := sqlfront.NewDB()
			db.Register("tickets", ticketsTable(12))
			_, err := db.ExecContext(ctx, conformanceStatements[0], sqlfront.ExecConfig{
				Config: query.Config{Backend: be},
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		})
	}
}

// TestConformanceConcurrentBatches hammers each backend from many
// goroutines (the serving runtime's workers share one backend); run under
// -race this is the seam's concurrency audit.
func TestConformanceConcurrentBatches(t *testing.T) {
	want := execWith(t, nil, conformanceStatements[0], false)
	for name, mk := range backends() {
		t.Run(name, func(t *testing.T) {
			be := mk()
			defer be.Close()
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 3; i++ {
						got := execWith(t, be, conformanceStatements[0], false)
						if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
							t.Errorf("concurrent relation diverged")
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestRecordingBackend checks the decorator's log: every engine batch is
// recorded with its rows and summed output budgets, and the totals match
// the statement's reported model calls.
func TestRecordingBackend(t *testing.T) {
	rec := backend.NewRecording(nil)
	defer rec.Close()
	res := execWith(t, rec, conformanceStatements[0], false)
	batches := rec.Batches()
	if len(batches) == 0 {
		t.Fatal("no batches recorded")
	}
	rows, out := 0, 0
	for _, b := range batches {
		if b.StageKey == "" {
			t.Error("recorded batch has empty stage key")
		}
		if b.Err != "" {
			t.Errorf("recorded batch failed: %s", b.Err)
		}
		if b.ModelCalls != b.Rows {
			t.Errorf("batch model calls = %d, rows = %d", b.ModelCalls, b.Rows)
		}
		if b.Metrics.PromptTokens == 0 {
			t.Error("recorded batch has no prompt tokens")
		}
		rows += b.Rows
		out += b.OutTokens
	}
	if rows != res.LLMCalls {
		t.Errorf("recorded rows = %d, statement reported %d model calls", rows, res.LLMCalls)
	}
	if out == 0 {
		t.Error("no output budget recorded")
	}
	rec.Reset()
	if len(rec.Batches()) != 0 {
		t.Error("Reset left batches behind")
	}
}

// TestPersistentPrefixSurvivesBatches is the seam-level pin of the
// cross-batch KV persistence: two consecutive batches sharing a stage key
// over disjoint rows must see strictly more cumulative hit tokens on a
// persistent backend than on the per-batch sim backend, while returning
// identical relations.
func TestPersistentPrefixSurvivesBatches(t *testing.T) {
	stmts := []string{
		`SELECT ticket_id, LLM('Did the response resolve the request?', request, response) AS ok
		 FROM tickets WHERE region = 'emea'`,
		`SELECT ticket_id, LLM('Did the response resolve the request?', request, response) AS ok
		 FROM tickets WHERE region = 'amer'`,
	}
	run := func(be backend.Backend) (int64, []*sqlfront.Result) {
		rec := backend.NewRecording(be)
		defer rec.Close()
		var results []*sqlfront.Result
		for _, sql := range stmts {
			results = append(results, execWith(t, rec, sql, false))
		}
		var matched int64
		keys := map[string]bool{}
		for _, b := range rec.Batches() {
			matched += b.Metrics.MatchedTokens
			keys[b.StageKey] = true
		}
		if len(keys) != 1 {
			t.Fatalf("statements spread over %d stage keys, want 1 (they share the LLM call)", len(keys))
		}
		return matched, results
	}
	simHit, simRes := run(backend.NewSim())
	perHit, perRes := run(backend.NewPersistent(0))
	if perHit <= simHit {
		t.Errorf("persistent hit tokens = %d, want strictly above sim's %d", perHit, simHit)
	}
	for i := range simRes {
		if fmt.Sprint(simRes[i].Rows) != fmt.Sprint(perRes[i].Rows) {
			t.Errorf("statement %d: relations differ between backends", i)
		}
	}
	t.Logf("cumulative hit tokens: sim %d, persistent %d", simHit, perHit)
}

// TestPersistentEvictionBudget pins the LRU engine budget: distinct stage
// keys past the budget evict the oldest engine, and an evicted stage starts
// cold again.
func TestPersistentEvictionBudget(t *testing.T) {
	be := backend.NewPersistent(2)
	defer be.Close()
	for i := 0; i < 4; i++ {
		sql := fmt.Sprintf(
			`SELECT ticket_id, LLM('Distinct question %d about the request?', request) AS a FROM tickets`, i)
		execWith(t, be, sql, false)
		if got := be.Engines(); got > 2 {
			t.Fatalf("after %d stages: %d live engines, budget 2", i+1, got)
		}
	}
	if got := be.Engines(); got != 2 {
		t.Errorf("live engines = %d, want 2 (budget reached)", got)
	}
}

// TestPersistentClosedFails ensures RunBatch after Close errors instead of
// silently building new engines.
func TestPersistentClosedFails(t *testing.T) {
	be := backend.NewPersistent(0)
	if err := be.Close(); err != nil {
		t.Fatal(err)
	}
	db := sqlfront.NewDB()
	db.Register("tickets", ticketsTable(6))
	_, err := db.Exec(conformanceStatements[0], sqlfront.ExecConfig{Config: query.Config{Backend: be}})
	if err == nil {
		t.Fatal("statement on a closed backend succeeded")
	}
}
