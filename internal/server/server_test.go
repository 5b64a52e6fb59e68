package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/runtime"
	"repro/internal/sqlfront"
	"repro/internal/table"
)

func post(t testing.TB, h http.Handler, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decode[T any](t testing.TB, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var out T
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("decode response %q: %v", rec.Body.String(), err)
	}
	return out
}

func sampleTable() TableJSON {
	return TableJSON{
		Columns: []string{"review", "product", "description"},
		Rows: [][]string{
			{"great value", "Widget", "a compact widget with a steel finish"},
			{"broke fast", "Gadget", "a rechargeable gadget for home use"},
			{"very sturdy", "Widget", "a compact widget with a steel finish"},
			{"meh quality", "Gadget", "a rechargeable gadget for home use"},
		},
		FDs: [][]string{{"product", "description"}},
	}
}

func TestHealth(t *testing.T) {
	h := NewWithConfig(Config{})
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
}

func TestReorderEndpoint(t *testing.T) {
	rec := post(t, NewWithConfig(Config{}), "/v1/reorder", ReorderRequest{Table: sampleTable()})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	res := decode[ReorderResponse](t, rec)
	if res.RowCount != 4 || res.ColumnCount != 3 {
		t.Errorf("shape = %d x %d", res.RowCount, res.ColumnCount)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("schedule has %d rows", len(res.Rows))
	}
	if res.PHC <= 0 {
		t.Errorf("PHC = %d", res.PHC)
	}
	// Every row's field list is a permutation of the columns.
	for _, row := range res.Rows {
		if len(row.Fields) != 3 {
			t.Fatalf("row fields = %v", row.Fields)
		}
	}
	// The shared (product, description) pair should lead the scheduled rows.
	if res.Rows[0].Fields[0] == "review" {
		t.Errorf("unique review field leads the prompt: %v", res.Rows[0].Fields)
	}
}

func TestReorderAlgorithms(t *testing.T) {
	for _, alg := range []string{"ggr", "ophr", "bestfixed"} {
		rec := post(t, NewWithConfig(Config{}), "/v1/reorder", ReorderRequest{Table: sampleTable(), Algorithm: alg})
		if rec.Code != http.StatusOK {
			t.Errorf("%s: status %d: %s", alg, rec.Code, rec.Body.String())
		}
	}
	rec := post(t, NewWithConfig(Config{}), "/v1/reorder", ReorderRequest{Table: sampleTable(), Algorithm: "bogus"})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bogus algorithm: status %d", rec.Code)
	}
}

func TestReorderValidation(t *testing.T) {
	cases := []TableJSON{
		{},                            // no columns
		{Columns: []string{"a", "a"}}, // duplicate
		{Columns: []string{""}},       // empty name
		{Columns: []string{"a"}, Rows: [][]string{{"1", "2"}}}, // ragged
	}
	for i, tj := range cases {
		rec := post(t, NewWithConfig(Config{}), "/v1/reorder", ReorderRequest{Table: tj})
		if rec.Code != http.StatusBadRequest {
			t.Errorf("case %d: status %d", i, rec.Code)
		}
	}
}

func TestReorderMethodGuard(t *testing.T) {
	req := httptest.NewRequest(http.MethodGet, "/v1/reorder", nil)
	rec := httptest.NewRecorder()
	NewWithConfig(Config{}).ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET allowed: %d", rec.Code)
	}
}

func TestEstimateEndpoint(t *testing.T) {
	for _, provider := range []string{"openai", "anthropic", "gemini"} {
		rec := post(t, NewWithConfig(Config{}), "/v1/estimate", EstimateRequest{
			Provider: provider, HitOriginal: 0.1, HitGGR: 0.8,
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", provider, rec.Code, rec.Body.String())
		}
		res := decode[EstimateResponse](t, rec)
		if res.Savings <= 0 {
			t.Errorf("%s: savings = %f", provider, res.Savings)
		}
	}
}

func TestEstimateValidation(t *testing.T) {
	rec := post(t, NewWithConfig(Config{}), "/v1/estimate", EstimateRequest{Provider: "nope", HitOriginal: 0.1, HitGGR: 0.8})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown provider: %d", rec.Code)
	}
	rec = post(t, NewWithConfig(Config{}), "/v1/estimate", EstimateRequest{Provider: "openai", HitOriginal: -1, HitGGR: 2})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("out-of-range rates: %d", rec.Code)
	}
}

func TestSimulateEndpoint(t *testing.T) {
	h := NewWithConfig(Config{})
	run := func(policy string) SimulateResponse {
		rec := post(t, h, "/v1/simulate", SimulateRequest{
			Table: sampleTable(), Prompt: "Summarize the product", Policy: policy,
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", policy, rec.Code, rec.Body.String())
		}
		return decode[SimulateResponse](t, rec)
	}
	ggr := run("cache-ggr")
	none := run("no-cache")
	if ggr.JCT <= 0 || none.JCT <= 0 {
		t.Fatal("no serving time")
	}
	if ggr.JCT > none.JCT {
		t.Errorf("GGR %.2fs slower than no-cache %.2fs", ggr.JCT, none.JCT)
	}
	if ggr.HitRate <= 0 {
		t.Error("GGR produced no hits")
	}
}

func TestSimulateValidation(t *testing.T) {
	h := NewWithConfig(Config{})
	rec := post(t, h, "/v1/simulate", SimulateRequest{Table: sampleTable()})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("missing prompt: %d", rec.Code)
	}
	rec = post(t, h, "/v1/simulate", SimulateRequest{
		Table:  TableJSON{Columns: []string{"a"}},
		Prompt: "p",
	})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty table: %d", rec.Code)
	}
	rec = post(t, h, "/v1/simulate", SimulateRequest{Table: sampleTable(), Prompt: "p", Policy: "bogus"})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bogus policy: %d", rec.Code)
	}
}

func TestRejectsUnknownFields(t *testing.T) {
	h, _ := sqlHandler(t)
	for _, tc := range []struct{ path, body string }{
		{"/v1/estimate", `{"provider":"openai","hitOriginal":0.1,"hitGGR":0.5,"bogus":1}`},
		// The pre-envelope /v1/sql spellings, retired after their deprecation
		// window: rejected loudly, not half-honoured.
		{"/v1/sql", `{"sql":"SELECT ticket_id FROM tickets","naive":true}`},
		{"/v1/sql", `{"sql":"SELECT ticket_id FROM tickets","policy":"no-cache"}`},
	} {
		req := httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader([]byte(tc.body)))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s %s: unknown field accepted: %d", tc.path, tc.body, rec.Code)
		} else if code := decode[ErrorResponse](t, rec).Error.Code; code != ErrCodeInvalidRequest {
			t.Errorf("%s %s: error code %q, want %q", tc.path, tc.body, code, ErrCodeInvalidRequest)
		}
	}
}

// sqlHandler builds a service with a serving runtime over one ad-hoc table.
func sqlHandler(t *testing.T) (http.Handler, *runtime.Runtime) {
	t.Helper()
	return sqlHandlerWith(t, runtime.Config{Workers: 2})
}

func sqlHandlerWith(t testing.TB, cfg runtime.Config) (http.Handler, *runtime.Runtime) {
	t.Helper()
	tbl := table.New("ticket_id", "region", "request")
	for i := 0; i < 12; i++ {
		tbl.MustAppendRow(
			"T-"+string(rune('0'+i%10))+string(rune('a'+i)),
			[]string{"emea", "amer"}[i%2],
			"please fix issue number "+string(rune('0'+i%3)),
		)
	}
	db := sqlfront.NewDB()
	db.Register("tickets", tbl)
	rt := runtime.New(db, cfg)
	t.Cleanup(rt.Close)
	return NewWithConfig(Config{Runtime: rt}), rt
}

func TestSQLEndpoint(t *testing.T) {
	h, _ := sqlHandler(t)
	rec := post(t, h, "/v1/sql", SQLRequest{
		SQL: `SELECT ticket_id, LLM('Is this urgent?', request) AS urgent FROM tickets WHERE region = 'emea'`,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	res := decode[SQLResponse](t, rec)
	if len(res.Columns) != 2 || res.Columns[1] != "urgent" {
		t.Errorf("columns = %v", res.Columns)
	}
	if len(res.Rows) != 6 {
		t.Errorf("rows = %d, want 6 (emea half)", len(res.Rows))
	}
	if res.LLMCalls == 0 || res.Stages != 1 {
		t.Errorf("llmCalls = %d, stages = %d", res.LLMCalls, res.Stages)
	}
	if res.Runtime.StatementsDone != 1 {
		t.Errorf("runtime statements = %d", res.Runtime.StatementsDone)
	}

	// A repeated dashboard statement is served from the result cache.
	rec = post(t, h, "/v1/sql", SQLRequest{
		SQL: `SELECT ticket_id, LLM('Is this urgent?', request) AS urgent FROM tickets WHERE region = 'emea'`,
	})
	res2 := decode[SQLResponse](t, rec)
	if res2.LLMCalls != 0 {
		t.Errorf("repeat made %d model calls, want 0", res2.LLMCalls)
	}
	if res2.Runtime.CacheHits == 0 || res2.Runtime.PlanCacheHits == 0 {
		t.Errorf("runtime metrics after repeat = %+v", res2.Runtime)
	}
}

func TestSQLEndpointNaiveToggle(t *testing.T) {
	h, _ := sqlHandler(t)
	stmt := `SELECT ticket_id, LLM('Summarize.', request) AS s FROM tickets
	         WHERE LLM('Summarize.', request) <> 'x' AND region = 'amer'`
	planned := decode[SQLResponse](t, post(t, h, "/v1/sql", SQLRequest{
		SQL: stmt, Options: &SQLOptions{Policy: "no-cache"},
	}))
	naive := decode[SQLResponse](t, post(t, h, "/v1/sql", SQLRequest{
		SQL: stmt, Options: &SQLOptions{Naive: true, Policy: "no-cache"},
	}))
	if naive.Stages <= planned.Stages {
		t.Errorf("naive stages = %d, planned = %d; naive should run the duplicated call twice", naive.Stages, planned.Stages)
	}
	if len(naive.Rows) != len(planned.Rows) {
		t.Errorf("naive rows = %d, planned rows = %d", len(naive.Rows), len(planned.Rows))
	}
	if len(naive.Deprecated) != 0 || len(planned.Deprecated) != 0 {
		t.Errorf("options envelope flagged as deprecated: %v %v", naive.Deprecated, planned.Deprecated)
	}
}

// TestSQLEndpointQoSFields: client, class, and deadlineMs flow through to
// the runtime's accounting and back in the response echo.
func TestSQLEndpointQoSFields(t *testing.T) {
	h, rt := sqlHandler(t)
	rec := post(t, h, "/v1/sql", SQLRequest{
		SQL:        `SELECT ticket_id, LLM('Is this urgent?', request) AS urgent FROM tickets`,
		Client:     "dashboard",
		Class:      "batch",
		DeadlineMs: 60_000,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	res := decode[SQLResponse](t, rec)
	if res.Client != "dashboard" || res.Class != "batch" {
		t.Errorf("identity echo = %q/%q", res.Client, res.Class)
	}
	m := rt.Metrics()
	cm, ok := m.Clients[runtime.ClientID("dashboard")]
	if !ok {
		t.Fatalf("no per-client metrics row: %+v", m.Clients)
	}
	if cm.Statements != 1 || cm.LLMCalls == 0 || cm.PromptTokens == 0 {
		t.Errorf("dashboard accounting = %+v", cm)
	}
	if m.QueueWait[runtime.ClassBatch].Count != 1 {
		t.Errorf("batch-class queue-wait histogram = %+v", m.QueueWait)
	}

	// Anonymous requests account under the default client.
	post(t, h, "/v1/sql", SQLRequest{SQL: `SELECT region FROM tickets`})
	if cm := rt.Metrics().Clients[runtime.DefaultClient]; cm.Statements != 1 {
		t.Errorf("anonymous accounting = %+v", cm)
	}

	if rec := post(t, h, "/v1/sql", SQLRequest{SQL: `SELECT region FROM tickets`, Class: "bogus"}); rec.Code != http.StatusBadRequest {
		t.Errorf("bogus class: %d, want 400", rec.Code)
	}
	if rec := post(t, h, "/v1/sql", SQLRequest{SQL: `SELECT region FROM tickets`, DeadlineMs: -1}); rec.Code != http.StatusBadRequest {
		t.Errorf("negative deadline: %d, want 400", rec.Code)
	}
}

// TestSQLEndpointQuota: an over-quota client gets the 429 envelope with a
// retry horizon in both the Retry-After header and the error body.
func TestSQLEndpointQuota(t *testing.T) {
	tbl := table.New("ticket_id", "request")
	for i := 0; i < 8; i++ {
		tbl.MustAppendRow("T-"+string(rune('a'+i)), "please fix issue "+string(rune('0'+i)))
	}
	db := sqlfront.NewDB()
	db.Register("tickets", tbl)
	rt := runtime.New(db, runtime.Config{
		Workers: 2,
		ClientQuotas: map[runtime.ClientID]runtime.Quota{
			"miser": {CallsPerSec: 0.001, CallBurst: 1},
		},
	})
	t.Cleanup(rt.Close)
	h := NewWithConfig(Config{Runtime: rt})

	stmt := `SELECT ticket_id, LLM('Is this urgent?', request) AS urgent FROM tickets`
	if rec := post(t, h, "/v1/sql", SQLRequest{SQL: stmt, Client: "miser"}); rec.Code != http.StatusOK {
		t.Fatalf("first statement: %d: %s", rec.Code, rec.Body.String())
	}
	rec := post(t, h, "/v1/sql", SQLRequest{SQL: stmt, Client: "miser"})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota statement: %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	envelope := decode[ErrorResponse](t, rec)
	if envelope.Error.Code != ErrCodeQuotaExceeded || envelope.Error.RetryAfterMs <= 0 {
		t.Errorf("quota envelope = %+v", envelope.Error)
	}
	// An unthrottled client is unaffected.
	if rec := post(t, h, "/v1/sql", SQLRequest{SQL: stmt, Client: "other"}); rec.Code != http.StatusOK {
		t.Errorf("unthrottled client: %d", rec.Code)
	}
	if m := rt.Metrics(); m.QuotaRejections != 1 || m.Clients["miser"].QuotaRejections != 1 {
		t.Errorf("quota rejection accounting = %d fleet / %d client, want 1/1",
			m.QuotaRejections, m.Clients["miser"].QuotaRejections)
	}
}

func TestSQLEndpointErrors(t *testing.T) {
	h, _ := sqlHandler(t)
	if rec := post(t, h, "/v1/sql", SQLRequest{}); rec.Code != http.StatusBadRequest {
		t.Errorf("empty sql: %d", rec.Code)
	}
	if rec := post(t, h, "/v1/sql", SQLRequest{SQL: "SELECT nope FROM tickets"}); rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("unknown column: %d", rec.Code)
	}
	if rec := post(t, NewWithConfig(Config{}), "/v1/sql", SQLRequest{SQL: "SELECT a FROM t"}); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("no runtime: %d", rec.Code)
	}
}

// TestSQLEndpointHonorsRequestContext: a request whose context is already
// dead must not execute the statement and must report a cancellation
// status, not a generic SQL error.
func TestSQLEndpointHonorsRequestContext(t *testing.T) {
	h, rt := sqlHandler(t)
	b, err := json.Marshal(SQLRequest{
		SQL: `SELECT ticket_id, LLM('Is this urgent?', request) AS urgent FROM tickets`,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/sql", bytes.NewReader(b)).WithContext(ctx)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 499 {
		t.Errorf("status = %d, want 499 (client closed request)", rec.Code)
	}
	if m := rt.Metrics(); m.StatementsCanceled != 1 {
		t.Errorf("statements canceled = %d, want 1", m.StatementsCanceled)
	}
}

// TestMetricsEndpoint: the fleet metrics are readable on their own GET
// endpoint, not only piggybacked on /v1/sql responses.
func TestMetricsEndpoint(t *testing.T) {
	h, _ := sqlHandler(t)
	post(t, h, "/v1/sql", SQLRequest{
		SQL: `SELECT ticket_id, LLM('Is this urgent?', request) AS urgent FROM tickets`,
	})

	req := httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	m := decode[runtime.Metrics](t, rec)
	if m.StatementsDone != 1 || m.StatementsSubmitted != 1 {
		t.Errorf("metrics = %+v, want one statement accounted", m)
	}
	if m.LLMCalls == 0 || m.PromptTokens == 0 {
		t.Errorf("no serving accounting in metrics: %+v", m)
	}
	// The PR 5 planning-amortization counters ride on the same endpoint: one
	// statement = one batch window = one GGR solve through the reorder
	// cache, and every prompt text is a first-time tokenization.
	if m.ReorderSolves != 1 || m.ReorderCacheMisses != 1 {
		t.Errorf("reorder accounting not exposed: solves=%d misses=%d, want 1/1",
			m.ReorderSolves, m.ReorderCacheMisses)
	}
	if m.PromptCacheMisses == 0 {
		t.Errorf("prompt-cache accounting not exposed: %+v", m)
	}

	// Method and availability guards.
	if rec := post(t, h, "/v1/metrics", struct{}{}); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/metrics: %d, want 405", rec.Code)
	}
	req = httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
	rec = httptest.NewRecorder()
	NewWithConfig(Config{}).ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("GET /v1/metrics without runtime: %d, want 503", rec.Code)
	}
}

// TestErrorEnvelope: every /v1/* error path answers with the structured
// envelope — a non-empty stable code and a human message — never a bare
// string.
func TestErrorEnvelope(t *testing.T) {
	h, _ := sqlHandler(t)
	cases := []struct {
		name   string
		rec    *httptest.ResponseRecorder
		status int
		code   string
	}{
		{"sql missing", post(t, h, "/v1/sql", SQLRequest{}), http.StatusBadRequest, ErrCodeInvalidRequest},
		{"sql bad class", post(t, h, "/v1/sql", SQLRequest{SQL: "SELECT region FROM tickets", Class: "nope"}), http.StatusBadRequest, ErrCodeInvalidRequest},
		{"sql exec failure", post(t, h, "/v1/sql", SQLRequest{SQL: "SELECT nope FROM tickets"}), http.StatusUnprocessableEntity, ErrCodeExecutionFailed},
		{"sql no runtime", post(t, NewWithConfig(Config{}), "/v1/sql", SQLRequest{SQL: "SELECT a FROM t"}), http.StatusServiceUnavailable, ErrCodeUnavailable},
		{"reorder bad table", post(t, h, "/v1/reorder", ReorderRequest{}), http.StatusBadRequest, ErrCodeInvalidRequest},
		{"reorder bad algorithm", post(t, h, "/v1/reorder", ReorderRequest{Table: sampleTable(), Algorithm: "bogus"}), http.StatusBadRequest, ErrCodeInvalidRequest},
		{"estimate bad provider", post(t, h, "/v1/estimate", EstimateRequest{Provider: "nope"}), http.StatusBadRequest, ErrCodeInvalidRequest},
		{"simulate no prompt", post(t, h, "/v1/simulate", SimulateRequest{Table: sampleTable()}), http.StatusBadRequest, ErrCodeInvalidRequest},
	}
	get := func(path string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	cases = append(cases,
		struct {
			name   string
			rec    *httptest.ResponseRecorder
			status int
			code   string
		}{"reorder wrong method", get("/v1/reorder"), http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed},
		struct {
			name   string
			rec    *httptest.ResponseRecorder
			status int
			code   string
		}{"metrics wrong method", post(t, h, "/v1/metrics", struct{}{}), http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed},
	)
	for _, tc := range cases {
		if tc.rec.Code != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.name, tc.rec.Code, tc.status)
		}
		envelope := decode[ErrorResponse](t, tc.rec)
		if envelope.Error.Code != tc.code {
			t.Errorf("%s: code = %q, want %q (body %s)", tc.name, envelope.Error.Code, tc.code, tc.rec.Body.String())
		}
		if envelope.Error.Message == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
	}
}
