package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/sqlfront"
	"repro/internal/table"
)

// slowHandler builds a service whose runtime treats every statement as slow,
// so GET /v1/traces has something to serve without opting in per statement.
func slowHandler(t *testing.T) http.Handler {
	t.Helper()
	tbl := table.New("ticket_id", "request")
	for i := 0; i < 8; i++ {
		tbl.MustAppendRow("T-"+string(rune('a'+i)), "please fix issue number "+string(rune('0'+i%3)))
	}
	db := sqlfront.NewDB()
	db.Register("tickets", tbl)
	rt := runtime.New(db, runtime.Config{Workers: 2,
		SlowQueryThreshold: time.Nanosecond})
	t.Cleanup(rt.Close)
	return NewWithConfig(Config{Runtime: rt})
}

// TestSQLTraceOption pins the options.trace round trip: the response carries
// a span tree rooted at the statement, and untraced requests carry none.
func TestSQLTraceOption(t *testing.T) {
	h, _ := sqlHandler(t)
	sql := `SELECT ticket_id, LLM('Is this urgent?', request) AS urgent FROM tickets WHERE region = 'emea'`

	rec := post(t, h, "/v1/sql", SQLRequest{SQL: sql, Options: &SQLOptions{Trace: true}})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	res := decode[SQLResponse](t, rec)
	if res.Trace == nil || res.Trace.Spans == nil {
		t.Fatal("options.trace did not return a trace")
	}
	if res.Trace.Spans.Name != "statement" {
		t.Errorf("trace root = %q, want statement", res.Trace.Spans.Name)
	}
	if res.Trace.SQL != sql {
		t.Errorf("trace SQL = %q", res.Trace.SQL)
	}
	calls, _, _ := res.Trace.Spans.Totals()
	if calls != int64(res.LLMCalls) {
		t.Errorf("trace calls = %d, response charged %d", calls, res.LLMCalls)
	}

	rec = post(t, h, "/v1/sql", SQLRequest{SQL: sql})
	if res := decode[SQLResponse](t, rec); res.Trace != nil {
		t.Error("untraced request returned a trace")
	}
}

// TestTracesEndpoint pins GET /v1/traces: retained slow statements come back
// newest first, and the endpoint is read-only.
func TestTracesEndpoint(t *testing.T) {
	h := slowHandler(t)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/traces", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if res := decode[TracesResponse](t, rec); len(res.Traces) != 0 {
		t.Errorf("fresh service already holds %d traces", len(res.Traces))
	}

	post(t, h, "/v1/sql", SQLRequest{SQL: `SELECT ticket_id, LLM('Summarize.', request) AS s FROM tickets`})
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/traces", nil))
	res := decode[TracesResponse](t, rec)
	if len(res.Traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(res.Traces))
	}
	if !res.Traces[0].Slow || res.Traces[0].Spans == nil {
		t.Errorf("retained trace = %+v, want slow with spans", res.Traces[0])
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/traces", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/traces = %d, want 405", rec.Code)
	}

	// Without a runtime the endpoint reports unavailable, like /v1/sql.
	rec = httptest.NewRecorder()
	NewWithConfig(Config{}).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/traces", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("no-runtime /v1/traces = %d, want 503", rec.Code)
	}
}

// TestMetricsPrometheus pins the text exposition: well-formed families with
// no duplicate headers, cumulative histogram buckets, per-stage series after
// traffic, and content negotiation via both ?format= and Accept.
func TestMetricsPrometheus(t *testing.T) {
	h, _ := sqlHandler(t)
	post(t, h, "/v1/sql", SQLRequest{SQL: `SELECT ticket_id, LLM('Is this urgent?', request) AS urgent FROM tickets`})

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics?format=prometheus", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body := rec.Body.String()
	if body == "" {
		t.Fatal("empty exposition")
	}

	seenHelp := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "# HELP ") {
			continue
		}
		name := strings.Fields(line)[2]
		if seenHelp[name] {
			t.Errorf("duplicate HELP for %s", name)
		}
		seenHelp[name] = true
	}

	for _, want := range []string{
		"llmq_llm_calls_total",
		"llmq_statements_done_total 1",
		`llmq_client_llm_calls_total{client="anon"}`,
		`llmq_queue_wait_seconds_bucket{class="interactive",le="+Inf"}`,
		"llmq_queue_wait_seconds_sum",
		"llmq_stage_executions_total",
		"llmq_stage_selectivity",
		// The lone statement's window closed because nobody could join it.
		`llmq_batch_closes_total{reason="idle"} 1`,
		`llmq_batch_closes_total{reason="timer"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}

	// Accept negotiation selects the same rendering without ?format=.
	req := httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if !strings.HasPrefix(rec.Header().Get("Content-Type"), "text/plain") {
		t.Errorf("Accept: text/plain served %q", rec.Header().Get("Content-Type"))
	}

	// JSON remains the default, and unknown formats are rejected.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if !strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		t.Errorf("default metrics content type = %q", rec.Header().Get("Content-Type"))
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics?format=xml", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("format=xml = %d, want 400", rec.Code)
	}
}
