package runtime

import (
	"bytes"
	"log/slog"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/obs"
	"repro/internal/sqlfront"
	"repro/internal/table"
)

// joinDB extends the tickets fixture with a small dimension table so a
// statement can exercise the join path under tracing.
func joinDB(rows int) *sqlfront.DB {
	db := newDB(rows)
	dim := table.New("region", "tier")
	dim.MustAppendRow("emea", "gold")
	dim.MustAppendRow("amer", "silver")
	dim.MustAppendRow("apac", "bronze")
	db.Register("regions", dim)
	return db
}

// TestTraceConservation is the tentpole invariant: a traced statement's span
// tree must account for exactly the model calls, prompt tokens, and virtual
// JCT the statement was charged — through plan cache, admission, the WHERE
// cascade, the coalescing batch window, and a sharded backend.
func TestTraceConservation(t *testing.T) {
	db := joinDB(30)
	sh, err := backend.NewSharded(nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	rt := New(db, Config{Workers: 4, BatchWindow: 10 * time.Millisecond, Backend: sh})
	defer rt.Close()

	joinStmt := `SELECT t.ticket_id, r.tier, LLM('Summarize the request.', t.request) AS s
	             FROM tickets AS t JOIN regions AS r ON t.region = r.region
	             WHERE LLM('Is the request about a hardware fault?', t.request) = 'Yes'`
	stmts := []string{joinStmt, dashboardStatements[0], dashboardStatements[1]}

	handles := make([]*Handle, len(stmts))
	for i, sql := range stmts {
		handles[i] = rt.Submit(sql, Options{Trace: true})
	}
	for i, h := range handles {
		if _, err := h.Wait(); err != nil {
			t.Fatalf("statement %d: %v", i, err)
		}
	}

	// Every traced statement conserves, including the two dashboards whose
	// shared LLM call coalesces (proportional token attribution) or dedups.
	for i, h := range handles {
		tr := h.Trace()
		if tr == nil || tr.Spans == nil {
			t.Fatalf("statement %d: no trace recorded", i)
		}
		sum := h.Summary()
		calls, tokens, jct := tr.Spans.Totals()
		if calls != sum.LLMCalls {
			t.Errorf("statement %d: trace calls = %d, charged %d", i, calls, sum.LLMCalls)
		}
		if tokens != sum.PromptTokens {
			t.Errorf("statement %d: trace tokens = %d, charged %d", i, tokens, sum.PromptTokens)
		}
		if math.Abs(jct-sum.JCTSeconds) > 1e-6 {
			t.Errorf("statement %d: trace JCT = %g, charged %g", i, jct, sum.JCTSeconds)
		}
	}

	// The join statement's tree carries every pipeline phase.
	tr := handles[0].Trace()
	if tr.Spans.Name != "statement" {
		t.Errorf("root span = %q, want statement", tr.Spans.Name)
	}
	sum := handles[0].Summary()
	if sum.LLMCalls == 0 {
		t.Fatal("join statement made no model calls; the fixture is inert")
	}
	for _, name := range []string{"prepare", "admission", "schedule", "backend"} {
		if tr.Spans.Find(name) == nil {
			t.Errorf("trace is missing a %q span", name)
		}
	}
	var stages, batches int
	tr.Spans.Walk(func(n *obs.SpanTree) {
		if strings.HasPrefix(n.Name, "stage:") {
			stages++
		}
		if n.Name == "batch" {
			batches++
		}
	})
	if stages < 2 {
		t.Errorf("trace has %d stage spans, want >= 2 (filter + projection)", stages)
	}
	if batches == 0 {
		t.Error("trace has no batch span despite a batch window")
	}
	if p := tr.Spans.Find("prepare"); p.Attrs["planCache"] == nil {
		t.Error("prepare span lacks the planCache attribute")
	}
	if a := tr.Spans.Find("admission"); a.Attrs["drrRounds"] == nil {
		t.Error("admission span lacks the drrRounds attribute")
	}

	// The trace ring retains explicitly traced statements too.
	if got := len(rt.Traces()); got != len(stmts) {
		t.Errorf("trace ring holds %d traces, want %d", got, len(stmts))
	}
}

// TestTraceOffIsFree pins the default path: without Options.Trace and
// without a slow-query threshold, no trace is recorded, the ring stays
// empty, and the summary still settles.
func TestTraceOffIsFree(t *testing.T) {
	db := newDB(12)
	rt := New(db, Config{Workers: 2})
	defer rt.Close()
	h := rt.Submit(dashboardStatements[0], Options{})
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	if h.Trace() != nil {
		t.Error("untraced statement recorded a trace")
	}
	if len(rt.Traces()) != 0 {
		t.Error("trace ring retained an untraced statement")
	}
	if h.Summary().LLMCalls == 0 {
		t.Error("summary did not settle without tracing")
	}
}

// TestSlowQueryLog pins the slow-query path: statements over the threshold
// are captured without opting in, logged through SlowLogger, and the ring
// evicts oldest-first at its bound.
func TestSlowQueryLog(t *testing.T) {
	db := newDB(12)
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	rt := New(db, Config{Workers: 1, SlowQueryThreshold: time.Nanosecond,
		traceRingSize: 2, SlowLogger: logger})
	defer rt.Close()

	stmts := []string{
		`SELECT ticket_id, LLM('Classify the fault.', request) AS c FROM tickets WHERE region = 'emea'`,
		`SELECT ticket_id, LLM('Classify the fault.', request) AS c FROM tickets WHERE region = 'amer'`,
		`SELECT ticket_id, LLM('Classify the fault.', request) AS c FROM tickets WHERE region = 'apac'`,
	}
	for _, sql := range stmts {
		h := rt.Submit(sql, Options{}) // no explicit trace: the threshold arms it
		if _, err := h.Wait(); err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if h.Trace() == nil {
			t.Fatalf("%q: slow statement settled without a trace", sql)
		}
	}

	traces := rt.Traces()
	if len(traces) != 2 {
		t.Fatalf("ring holds %d traces, want 2 (bounded)", len(traces))
	}
	// Newest first; the oldest statement was evicted.
	if !strings.Contains(traces[0].SQL, "apac") || !strings.Contains(traces[1].SQL, "amer") {
		t.Errorf("ring order = [%q, %q], want newest first with emea evicted",
			traces[0].SQL, traces[1].SQL)
	}
	for _, tr := range traces {
		if !tr.Slow {
			t.Errorf("%q: retained trace not marked slow", tr.SQL)
		}
		if tr.Spans == nil || tr.Spans.Find("backend") == nil {
			t.Errorf("%q: slow trace lacks spans", tr.SQL)
		}
	}
	if got := buf.String(); strings.Count(got, "slow statement") != len(stmts) {
		t.Errorf("slow log emitted %d records, want %d:\n%s",
			strings.Count(got, "slow statement"), len(stmts), got)
	}
}

// TestStageRollups pins the per-StageKey aggregation surfaced in Metrics:
// executions accumulate, the WHERE cascade's observed selectivity lands on
// the filter stage, and cache outcomes are attributed per key.
func TestStageRollups(t *testing.T) {
	db := newDB(24)
	rt := New(db, Config{Workers: 2})
	defer rt.Close()
	sql := `SELECT ticket_id FROM tickets
	        WHERE LLM('Is the request about a hardware fault?', request) = 'Yes' AND region <> 'apac'`
	for i := 0; i < 2; i++ { // second run hits the result cache
		if _, err := rt.Exec(sql, Options{}); err != nil {
			t.Fatal(err)
		}
	}

	m := rt.Metrics()
	if len(m.Stages) == 0 {
		t.Fatal("no stage rollups recorded")
	}
	var filter *obs.StageRollup
	for id, sr := range m.Stages {
		sr := sr
		if sr.Count > 0 && sr.Selectivity >= 0 {
			filter = &sr
		}
		if sr.Name == "" {
			t.Errorf("rollup %s has no stage name", id)
		}
	}
	if filter == nil {
		t.Fatal("no rollup learned a selectivity from the WHERE cascade")
	}
	if filter.Selectivity < 0 || filter.Selectivity > 1 {
		t.Errorf("selectivity = %g, want within [0, 1]", filter.Selectivity)
	}
	if filter.Count != 2 {
		t.Errorf("filter stage observed %d executions, want 2", filter.Count)
	}
	if filter.CacheHits == 0 {
		t.Error("repeat run recorded no cache hits on the stage rollup")
	}
	if filter.MeanJCTSeconds <= 0 || filter.P99JCTSeconds < filter.MeanJCTSeconds {
		t.Errorf("latency stats mean=%g p99=%g", filter.MeanJCTSeconds, filter.P99JCTSeconds)
	}
}

// BenchmarkTracingOff is the perf guard for the default path: the
// multi-client serving bench with tracing disabled, directly comparable to
// BenchmarkMultiClientServing. The recorder must never allocate here — no
// span, no context value, no attribute.
func BenchmarkTracingOff(b *testing.B) {
	stmts := multiClientWorkload()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db := newDB(45)
		rt := New(db, Config{Workers: 8, BatchWindow: 5 * time.Millisecond})
		handles := make([]*Handle, len(stmts))
		for j, sql := range stmts {
			handles[j] = rt.Submit(sql, Options{})
		}
		for j, h := range handles {
			if _, err := h.Wait(); err != nil {
				b.Fatalf("client %d: %v", j, err)
			}
			if h.Trace() != nil {
				b.Fatal("tracing-off run recorded a trace")
			}
		}
		m := rt.Metrics()
		rt.Close()
		if i == b.N-1 {
			b.ReportMetric(float64(m.LLMCalls), "llmcalls/op")
			b.ReportMetric(m.TotalJCT, "jct-s/op")
		}
	}
}
