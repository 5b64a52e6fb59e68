package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/runtime"
)

// metricsKeys is the top-level key sequence of the GET /v1/metrics JSON
// object on a router-backed runtime that has served a statement, recorded on
// the commit before runtime.Totals was split out of runtime.Metrics, with the
// batch close reasons appended to the totals since. The first totalsKeys of
// them are the fixed-size totals a /v1/sql response carries as "runtime";
// the rest are the breakdowns only /v1/metrics serves.
var metricsKeys = []string{
	"statementsSubmitted", "statementsDone", "statementsFailed", "statementsCanceled",
	"abandonedResolved", "planCacheHits", "planCacheMisses", "cacheHits", "cacheMisses",
	"inflightDeduped", "rowsDeduped", "batches", "coalescedRuns", "coalescedRows", "llmCalls",
	"reorderCacheHits", "reorderCacheMisses", "reorderSolves",
	"promptCacheHits", "promptCacheMisses", "shardedBatches", "shardRuns", "shardJctSeconds",
	"totalJctSeconds", "totalSolverSeconds", "promptTokens", "matchedTokens",
	"prefilledTokens", "quotaRejections", "batchWindowsShortened",
	"batchClosesTimer", "batchClosesCap", "batchClosesIdle", "batchClosesPulled", "batchClosesShutdown",
	"clients", "queueWait", "stages", "cluster",
}

const totalsKeys = 35

// objectKeys returns a JSON object's keys in document order.
func objectKeys(t testing.TB, body []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object (%v, %v): %.80s", tok, err, body)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

func getMetrics(t testing.TB, h http.Handler) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/metrics: status %d: %s", rec.Code, rec.Body.String())
	}
	return rec
}

// adhocStatement is a statement no earlier one shares a prompt with: a new
// plan, a new StageKey, six cold result-cache rows.
func adhocStatement(i int) SQLRequest {
	return SQLRequest{SQL: fmt.Sprintf(
		`SELECT ticket_id, LLM('Is this urgent? (variant %d)', request) AS urgent FROM tickets WHERE region = 'emea'`, i)}
}

// serveAdhoc posts n distinct-prompt statements and returns the first and
// last responses.
func serveAdhoc(t testing.TB, h http.Handler, n int) (first, last *httptest.ResponseRecorder) {
	t.Helper()
	for i := 0; i < n; i++ {
		last = post(t, h, "/v1/sql", adhocStatement(i))
		if last.Code != http.StatusOK {
			t.Fatalf("statement %d: status %d: %s", i, last.Code, last.Body.String())
		}
		if i == 0 {
			first = last
		}
	}
	return first, last
}

// TestSQLResponseSizeIndependentOfHistory: a /v1/sql answer costs what the
// statement costs, not what the runtime has served before it. After 600
// distinct-prompt statements (past the 512-key rollup bound) the body is the
// size it was for the first, carries every total and none of the
// history-sized breakdowns — which GET /v1/metrics still serves, bounded,
// and still learning stages that first appear after the store filled.
func TestSQLResponseSizeIndependentOfHistory(t *testing.T) {
	// A negative window flushes every stage at once: 600 cold statements
	// without 600 batch-window sleeps.
	h, _ := sqlHandlerWith(t, runtime.Config{Workers: 2, BatchWindow: -1})
	const history = 600
	first, last := serveAdhoc(t, h, history)

	// The model's answers are as long as each row's output budget, which
	// follows the row's content and the prompt, so the sizes compared are
	// net of that text.
	size := map[string]int{}
	for name, rec := range map[string]*httptest.ResponseRecorder{"first": first, "last": last} {
		resp := decode[struct {
			Rows    [][]string      `json:"rows"`
			Runtime json.RawMessage `json:"runtime"`
		}](t, rec)
		if len(resp.Rows) != 6 {
			t.Fatalf("%s response has %d rows, want 6", name, len(resp.Rows))
		}
		if got, want := objectKeys(t, resp.Runtime), metricsKeys[:totalsKeys]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s response: runtime keys\n got %q\nwant %q", name, got, want)
		}
		size[name] = rec.Body.Len()
		for _, row := range resp.Rows {
			size[name] -= len(row[1])
		}
	}
	if n1, n := size["first"], size["last"]; n < n1*9/10 || n > n1*11/10 {
		t.Errorf("response %d is %d bytes net of model text, the first was %d: want within ±10%%", history, n, n1)
	}
	if done := decode[SQLResponse](t, last).Runtime.StatementsDone; done != history {
		t.Errorf("last response reports %d statements done, want %d", done, history)
	}

	// A recurring stage that first appears after the rollup store filled.
	const recurrences = 3
	for i := 0; i < recurrences; i++ {
		if rec := post(t, h, "/v1/sql", adhocStatement(-1)); rec.Code != http.StatusOK {
			t.Fatalf("recurring statement: status %d: %s", rec.Code, rec.Body.String())
		}
	}
	m := decode[runtime.Metrics](t, getMetrics(t, h))
	if len(m.Stages) == 0 || len(m.Stages) > 512 {
		t.Errorf("/v1/metrics carries %d stage rollups, want within (0, 512]", len(m.Stages))
	}
	var recurring int
	for _, sr := range m.Stages {
		if sr.Count == recurrences {
			recurring++
		}
	}
	if recurring != 1 {
		t.Errorf("%d rollups with count %d, want exactly the late recurring stage", recurring, recurrences)
	}
	if m.StatementsDone != history+recurrences || len(m.Clients) != 1 || len(m.QueueWait) != 1 {
		t.Errorf("/v1/metrics lost its breakdowns: done=%d clients=%d queueWait=%d",
			m.StatementsDone, len(m.Clients), len(m.QueueWait))
	}
}

// TestMetricsEndpointShape: splitting Totals out of Metrics moved nothing on
// GET /v1/metrics — same keys, same order, breakdowns populated — on the
// topology that emits every one of them (a cluster router in front of a
// worker).
func TestMetricsEndpointShape(t *testing.T) {
	worker := httptest.NewServer(NewWithConfig(Config{Worker: NewWorker(backend.NewSim(), nil)}))
	defer worker.Close()
	router, err := cluster.NewRouter(cluster.Config{Workers: []string{worker.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	_, rt := sqlHandlerWith(t, runtime.Config{Workers: 2, Backend: router})
	h := NewWithConfig(Config{Runtime: rt, Cluster: router})

	sqlBody := post(t, h, "/v1/sql", adhocStatement(0))
	if sqlBody.Code != http.StatusOK {
		t.Fatalf("status %d: %s", sqlBody.Code, sqlBody.Body.String())
	}
	metrics := getMetrics(t, h)
	if got := objectKeys(t, metrics.Body.Bytes()); !reflect.DeepEqual(got, metricsKeys) {
		t.Errorf("GET /v1/metrics keys\n got %q\nwant %q", got, metricsKeys)
	}
	m := decode[Metrics](t, metrics)
	if len(m.Stages) != 1 || len(m.Clients) != 1 || len(m.QueueWait) != 1 || m.Cluster == nil || len(m.Cluster.Workers) != 1 {
		t.Errorf("breakdowns not populated: stages=%d clients=%d queueWait=%d cluster=%+v",
			len(m.Stages), len(m.Clients), len(m.QueueWait), m.Cluster)
	}
	// The totals the statement's own response carried are the ones the
	// metrics endpoint reports: one builder fills both.
	if got, want := decode[SQLResponse](t, sqlBody).Runtime, m.Totals; got != want {
		t.Errorf("/v1/sql runtime totals %+v differ from /v1/metrics totals %+v", got, want)
	}
}

// BenchmarkHandleSQLCold is the served cold path without the load harness:
// one never-seen prompt per iteration, after enough history to fill the
// rollup store. respBytes/op is the number that must not grow with history.
func BenchmarkHandleSQLCold(b *testing.B) {
	h, _ := sqlHandlerWith(b, runtime.Config{Workers: 2, BatchWindow: -1})
	const history = 600
	serveAdhoc(b, h, history)
	var respBytes int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := post(b, h, "/v1/sql", adhocStatement(history+i))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		respBytes += int64(rec.Body.Len())
	}
	b.ReportMetric(float64(respBytes)/float64(b.N), "respBytes/op")
}

// TestClusterWorkersEndpoint walks the fleet admin endpoint through every
// answer it has, in order, against one live router over httptest workers.
func TestClusterWorkersEndpoint(t *testing.T) {
	newWorker := func() string {
		srv := httptest.NewServer(NewWithConfig(Config{Worker: NewWorker(backend.NewSim(), nil)}))
		t.Cleanup(srv.Close)
		return srv.URL
	}
	a, b := newWorker(), newWorker()
	router, err := cluster.NewRouter(cluster.Config{Workers: []string{a}})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	h := NewWithConfig(Config{Cluster: router})
	do := func(h http.Handler, method string, body any) *httptest.ResponseRecorder {
		raw, _ := json.Marshal(body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, "/v1/cluster/workers", bytes.NewReader(raw)))
		return rec
	}
	sorted := func(addrs ...string) []string { sort.Strings(addrs); return addrs }

	for _, tc := range []struct {
		name    string
		h       http.Handler
		method  string
		body    any
		status  int
		code    string   // error envelope code, "" on success
		workers []string // fleet after the call, on success
	}{
		{"no router attached", NewWithConfig(Config{}), http.MethodGet, nil, http.StatusServiceUnavailable, ErrCodeUnavailable, nil},
		{"list", h, http.MethodGet, nil, http.StatusOK, "", sorted(a)},
		{"remove the last worker", h, http.MethodPost, ClusterWorkersRequest{Op: "remove", Addr: a}, http.StatusBadRequest, ErrCodeInvalidRequest, nil},
		{"add", h, http.MethodPost, ClusterWorkersRequest{Op: "add", Addr: b}, http.StatusOK, "", sorted(a, b)},
		{"add a present worker", h, http.MethodPost, ClusterWorkersRequest{Op: "add", Addr: b}, http.StatusBadRequest, ErrCodeInvalidRequest, nil},
		{"unknown op", h, http.MethodPost, ClusterWorkersRequest{Op: "drain", Addr: b}, http.StatusBadRequest, ErrCodeInvalidRequest, nil},
		{"empty addr", h, http.MethodPost, ClusterWorkersRequest{Op: "add"}, http.StatusBadRequest, ErrCodeInvalidRequest, nil},
		{"unknown field", h, http.MethodPost, map[string]string{"op": "add", "address": b}, http.StatusBadRequest, ErrCodeInvalidRequest, nil},
		{"remove", h, http.MethodPost, ClusterWorkersRequest{Op: "remove", Addr: a}, http.StatusOK, "", sorted(b)},
		{"remove an absent worker", h, http.MethodPost, ClusterWorkersRequest{Op: "remove", Addr: a}, http.StatusBadRequest, ErrCodeInvalidRequest, nil},
		{"wrong method", h, http.MethodPut, ClusterWorkersRequest{Op: "add", Addr: a}, http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed, nil},
		{"list after the changes", h, http.MethodGet, nil, http.StatusOK, "", sorted(b)},
	} {
		rec := do(tc.h, tc.method, tc.body)
		if rec.Code != tc.status {
			t.Errorf("%s: status = %d, want %d (body %s)", tc.name, rec.Code, tc.status, rec.Body)
			continue
		}
		if tc.code != "" {
			if env := decode[ErrorResponse](t, rec); env.Error.Code != tc.code || env.Error.Message == "" {
				t.Errorf("%s: envelope = %+v, want code %q with a message", tc.name, env.Error, tc.code)
			}
			continue
		}
		if got := decode[ClusterWorkersResponse](t, rec).Workers; !reflect.DeepEqual(got, tc.workers) {
			t.Errorf("%s: workers = %v, want %v", tc.name, got, tc.workers)
		}
	}
	if got := router.Workers(); !reflect.DeepEqual(got, sorted(b)) {
		t.Errorf("router fleet = %v, want %v", got, sorted(b))
	}
}
