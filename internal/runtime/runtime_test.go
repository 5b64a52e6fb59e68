package runtime

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/sqlfront"
	"repro/internal/table"
)

// ticketsTable builds a deterministic ad-hoc relation. Its name is not a
// bundled dataset, so the simulated oracle's field-position coefficient is
// zero and answers depend on row content only — concurrent, batched, and
// sequential executions must then return bit-identical relations.
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

func newDB(rows int) *sqlfront.DB {
	db := sqlfront.NewDB()
	db.Register("tickets", ticketsTable(rows))
	return db
}

// dashboardStatements is a small workload mixing LLM filters, projections,
// aggregates, and plain predicates. Several statements share the same LLM
// call over different plain filters, which is what cross-query batching and
// inflight dedup exploit.
var dashboardStatements = []string{
	`SELECT ticket_id, LLM('Did the response resolve the request?', request, response) AS resolved
	 FROM tickets WHERE region = 'emea'`,
	`SELECT ticket_id, LLM('Did the response resolve the request?', request, response) AS resolved
	 FROM tickets WHERE region = 'amer'`,
	`SELECT ticket_id FROM tickets
	 WHERE LLM('Is the request about a hardware fault?', request) = 'Yes' AND region <> 'apac'`,
	`SELECT region, COUNT(*) AS n, AVG(LLM('Rate the anger of this request from 1 to 5.', request)) AS anger
	 FROM tickets GROUP BY region ORDER BY n DESC, region`,
	`SELECT region, COUNT(*) AS n FROM tickets
	 GROUP BY region HAVING COUNT(*) > 3 ORDER BY region`,
}

func seqBaseline(t testing.TB, db *sqlfront.DB, stmts []string) (results []*sqlfront.Result, calls int64, jct float64) {
	t.Helper()
	for _, sql := range stmts {
		res, err := db.Exec(sql, sqlfront.ExecConfig{})
		if err != nil {
			t.Fatalf("sequential %q: %v", sql, err)
		}
		results = append(results, res)
		calls += int64(res.LLMCalls)
		jct += res.JCT
	}
	return results, calls, jct
}

func sameRelation(t *testing.T, sql string, want, got *sqlfront.Result) {
	t.Helper()
	if !reflect.DeepEqual(want.Columns, got.Columns) {
		t.Errorf("%q: columns differ\nwant %v\ngot  %v", sql, want.Columns, got.Columns)
	}
	if !reflect.DeepEqual(want.Rows, got.Rows) {
		t.Errorf("%q: rows differ\nwant %v\ngot  %v", sql, want.Rows, got.Rows)
	}
}

// TestRuntimeMatchesSequential runs the workload once sequentially through
// sqlfront and once concurrently through the runtime, and requires identical
// result relations statement by statement.
func TestRuntimeMatchesSequential(t *testing.T) {
	db := newDB(36)
	want, _, _ := seqBaseline(t, db, dashboardStatements)

	rt := New(db, Config{Workers: len(dashboardStatements), BatchWindow: 40 * time.Millisecond})
	defer rt.Close()
	handles := make([]*Handle, len(dashboardStatements))
	for i, sql := range dashboardStatements {
		handles[i] = rt.Submit(sql, Options{})
	}
	for i, h := range handles {
		got, err := h.Wait()
		if err != nil {
			t.Fatalf("concurrent %q: %v", dashboardStatements[i], err)
		}
		sameRelation(t, dashboardStatements[i], want[i], got)
	}
}

// TestResultCacheAccounting re-runs one statement and requires the second
// run to be served entirely from the result cache: zero model calls, zero
// added JCT, and hit/miss counters that add up.
func TestResultCacheAccounting(t *testing.T) {
	db := newDB(24)
	rt := New(db, Config{Workers: 2})
	defer rt.Close()
	sql := dashboardStatements[0]

	first, err := rt.Exec(sql, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first.LLMCalls == 0 {
		t.Fatal("first run made no model calls")
	}
	m1 := rt.Metrics()
	if m1.CacheMisses != int64(first.LLMCalls) {
		t.Errorf("misses = %d, want %d (every first-run call is a miss)", m1.CacheMisses, first.LLMCalls)
	}
	if m1.CacheHits != 0 {
		t.Errorf("hits after first run = %d", m1.CacheHits)
	}
	if rt.CachedResults() != first.LLMCalls {
		t.Errorf("cached entries = %d, want %d", rt.CachedResults(), first.LLMCalls)
	}

	second, err := rt.Exec(sql, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameRelation(t, sql, first, second)
	if second.LLMCalls != 0 {
		t.Errorf("second run made %d model calls, want 0", second.LLMCalls)
	}
	if second.JCT != 0 {
		t.Errorf("second run JCT = %v, want 0 (no engine run)", second.JCT)
	}
	m2 := rt.Metrics()
	if m2.CacheHits != int64(first.LLMCalls) {
		t.Errorf("hits = %d, want %d", m2.CacheHits, first.LLMCalls)
	}
	if m2.LLMCalls != m1.LLMCalls {
		t.Errorf("model calls grew from %d to %d on a fully cached run", m1.LLMCalls, m2.LLMCalls)
	}
	if m2.PlanCacheHits == 0 {
		t.Error("second run did not hit the plan cache")
	}
}

// TestInflightDedup disables the result cache and fires identical
// statements concurrently: inflight dedup alone must keep the model-call
// count strictly below K independent runs.
func TestInflightDedup(t *testing.T) {
	db := newDB(18)
	sql := dashboardStatements[2]
	solo, err := db.Exec(sql, sqlfront.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}

	const k = 5
	rt := New(db, Config{
		Workers:       k,
		BatchWindow:   400 * time.Millisecond,
		CacheCapacity: -1, // only inflight dedup may collapse calls
	})
	defer rt.Close()
	handles := make([]*Handle, k)
	for i := range handles {
		handles[i] = rt.Submit(sql, Options{})
	}
	for _, h := range handles {
		res, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		sameRelation(t, sql, solo, res)
	}
	m := rt.Metrics()
	if m.LLMCalls >= int64(k*solo.LLMCalls) {
		t.Errorf("model calls = %d, want < %d (no dedup happened)", m.LLMCalls, k*solo.LLMCalls)
	}
	if m.InflightDeduped == 0 {
		t.Error("no inflight dedup recorded for identical concurrent statements")
	}
	if rt.CachedResults() != 0 {
		t.Errorf("result cache disabled but holds %d entries", rt.CachedResults())
	}
}

// TestPreparedStatements covers the Prepare/Execute path: repeated Execute
// reuses the plan, and re-registering a table transparently re-prepares.
func TestPreparedStatements(t *testing.T) {
	db := newDB(12)
	rt := New(db, Config{Workers: 2})
	defer rt.Close()

	stmt, err := rt.Prepare(dashboardStatements[3])
	if err != nil {
		t.Fatal(err)
	}
	first, err := stmt.Execute(Options{})
	if err != nil {
		t.Fatal(err)
	}
	again, err := stmt.Execute(Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameRelation(t, stmt.SQL(), first, again)
	if m := rt.Metrics(); m.PlanCacheMisses != 1 {
		t.Errorf("plan cache misses = %d, want 1", m.PlanCacheMisses)
	}

	// A schema-compatible re-registration must be picked up (new rows), not
	// served from the stale binding.
	db.Register("tickets", ticketsTable(20))
	bigger, err := stmt.Execute(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var nFirst, nBigger int
	fmt.Sscan(first.Rows[0][1], &nFirst)
	fmt.Sscan(bigger.Rows[0][1], &nBigger)
	if nBigger <= nFirst {
		t.Errorf("after re-registration largest group = %d, want > %d", nBigger, nFirst)
	}
}

// TestPlanCacheBounded evicts past capacity instead of growing without
// limit, and evicted statements still execute (they just re-prepare).
func TestPlanCacheBounded(t *testing.T) {
	db := newDB(6)
	rt := New(db, Config{Workers: 1, PlanCacheCapacity: 2})
	defer rt.Close()
	stmts := []string{
		`SELECT ticket_id FROM tickets WHERE region = 'emea'`,
		`SELECT ticket_id FROM tickets WHERE region = 'amer'`,
		`SELECT ticket_id FROM tickets WHERE region = 'apac'`,
	}
	for round := 0; round < 3; round++ {
		for _, sql := range stmts {
			if _, err := rt.Exec(sql, Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	rt.planMu.Lock()
	n := rt.plans.Len()
	rt.planMu.Unlock()
	if n > 2 {
		t.Errorf("plan cache holds %d entries, capacity 2", n)
	}
	m := rt.Metrics()
	if m.PlanCacheMisses < 3 {
		t.Errorf("plan cache misses = %d, want >= 3", m.PlanCacheMisses)
	}
	if m.StatementsDone != 9 {
		t.Errorf("statements done = %d, want 9", m.StatementsDone)
	}
}

// TestNaivePlannedToggle checks the per-statement A/B switch: the naive plan
// must cost at least as many model calls and return the same relation.
func TestNaivePlannedToggle(t *testing.T) {
	db := newDB(24)
	rt := New(db, Config{Workers: 2, CacheCapacity: -1})
	defer rt.Close()
	sql := `SELECT ticket_id, LLM('Did the response resolve the request?', request, response) AS ok
	        FROM tickets
	        WHERE region = 'emea' AND LLM('Did the response resolve the request?', request, response) = 'Yes'`

	planned, err := rt.Exec(sql, Options{})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := rt.Exec(sql, Options{Naive: true})
	if err != nil {
		t.Fatal(err)
	}
	sameRelation(t, sql, planned, naive)
	if naive.LLMCalls <= planned.LLMCalls {
		t.Errorf("naive calls = %d, planned = %d; naive should pay more", naive.LLMCalls, planned.LLMCalls)
	}
}

// TestSubmitAfterClose fails fast instead of hanging.
func TestSubmitAfterClose(t *testing.T) {
	rt := New(newDB(4), Config{Workers: 1})
	rt.Close()
	if _, err := rt.Exec(dashboardStatements[0], Options{}); err == nil {
		t.Fatal("Exec on a closed runtime succeeded")
	}
	rt.Close() // idempotent
}

// TestErrorStatement propagates planner errors through the handle.
func TestErrorStatement(t *testing.T) {
	rt := New(newDB(4), Config{Workers: 1})
	defer rt.Close()
	if _, err := rt.Exec(`SELECT nope FROM tickets`, Options{}); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := rt.Exec(`SELECT * FROM missing`, Options{}); err == nil {
		t.Fatal("unknown table accepted")
	}
	if m := rt.Metrics(); m.StatementsFailed != 0 {
		// Both failures happen at prepare time, before admission.
		t.Errorf("failed statements = %d, want 0 (prepare-time errors)", m.StatementsFailed)
	}
}

// TestRunStageRejectsPositionalRows: a stage whose rows carry no
// content-derived keys cannot be cached soundly, so RunStage refuses it —
// before any counter moves or any engine runs.
func TestRunStageRejectsPositionalRows(t *testing.T) {
	rt := New(newDB(4), Config{Workers: 1})
	defer rt.Close()
	before := rt.Totals()
	spec := query.Spec{Name: "positional", Type: query.Projection, UserPrompt: "Summarize.", OutTokens: 8}
	st, err := rt.RunStage(context.Background(), spec, ticketsTable(4), query.Config{})
	if err == nil || st != nil {
		t.Fatalf("RunStage without RowKeys = (%v, %v), want an error", st, err)
	}
	if after := rt.Totals(); !reflect.DeepEqual(before, after) {
		t.Errorf("a rejected stage moved counters:\nbefore %+v\nafter  %+v", before, after)
	}
}
