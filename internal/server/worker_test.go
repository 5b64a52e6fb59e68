package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/llmsim"
	"repro/internal/tokenizer"
)

func wireBatch(client, class string, rows int) backend.WireBatch {
	wb := backend.WireBatch{
		StageKey: "worker-test-stage",
		Client:   client,
		Class:    class,
		Engine: llmsim.Config{
			Cost:         llmsim.CostModel{Model: llmsim.Llama3_8B, Cluster: llmsim.SingleL4},
			CacheEnabled: true,
		},
	}
	for i := 0; i < rows; i++ {
		wb.Requests = append(wb.Requests, backend.WireRequest{
			ID:        i,
			Prompt:    make([]tokenizer.Token, 12),
			OutTokens: 4,
		})
	}
	return wb
}

func workerHandler() (http.Handler, *Worker) {
	wk := NewWorker(backend.NewSim(), nil)
	return NewWithConfig(Config{Worker: wk}), wk
}

func TestWorkerBatchEndpoint(t *testing.T) {
	h, wk := workerHandler()
	rec := post(t, h, "/v1/batch", wireBatch("dashboard-1", "batch", 3))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	res := decode[backend.WireResult](t, rec)
	if res.ModelCalls != 3 {
		t.Errorf("model calls = %d, want 3", res.ModelCalls)
	}
	if res.Metrics.PromptTokens == 0 {
		t.Error("result carries no prompt accounting")
	}
	st := wk.Stats()
	if st.Batches != 1 || st.Rows != 3 || st.Errors != 0 {
		t.Errorf("stats = %+v, want 1 batch / 3 rows / 0 errors", st)
	}
	if c := st.Clients["dashboard-1"]; c.Batches != 1 || c.Rows != 3 {
		t.Errorf("client share = %+v, want {Batches:1 Rows:3}", c)
	}

	// Anonymous batches account under "anon".
	post(t, h, "/v1/batch", wireBatch("", "", 2))
	if c := wk.Stats().Clients["anon"]; c.Batches != 1 || c.Rows != 2 {
		t.Errorf("anon share = %+v, want {Batches:1 Rows:2}", c)
	}
}

func TestWorkerBatchRejections(t *testing.T) {
	h, wk := workerHandler()

	// GET is not allowed (the POST-only contract every /v1 body shares).
	req := httptest.NewRequest(http.MethodGet, "/v1/batch", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", rec.Code)
	}

	// Malformed JSON.
	req = httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader("{nope"))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad JSON status = %d, want 400", rec.Code)
	}

	// Valid JSON, invalid spec: no requests.
	rec = post(t, h, "/v1/batch", backend.WireBatch{StageKey: "empty"})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty batch status = %d, want 400", rec.Code)
	}
	env := decode[struct {
		Error struct{ Code, Message string } `json:"error"`
	}](t, rec)
	if env.Error.Code != ErrCodeInvalidRequest {
		t.Errorf("error code = %q, want %q", env.Error.Code, ErrCodeInvalidRequest)
	}

	// Invalid group annotation.
	wb := wireBatch("", "", 2)
	wb.Groups = []int{1, 0} // out of order
	rec = post(t, h, "/v1/batch", wb)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad groups status = %d, want 400", rec.Code)
	}

	// Invalid deadline header.
	b := post(t, h, "/v1/batch", wireBatch("", "", 1)) // warm-up sanity
	if b.Code != http.StatusOK {
		t.Fatalf("sanity batch status = %d", b.Code)
	}
	req = httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(`{"stageKey":"x","requests":[{"id":0,"prompt":[1],"outTokens":1}],"engine":{}}`))
	req.Header.Set(backend.DeadlineHeader, "not-a-number")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad deadline header status = %d, want 400", rec.Code)
	}

	// Rejections never count as served batches.
	if st := wk.Stats(); st.Batches != 1 {
		t.Errorf("served batches = %d, want 1 (only the sanity batch)", st.Batches)
	}
}

// TestWorkerBatchWireRules: what the wire's own decoder refuses, the handler
// answers 400 invalid_request naming the byte, without running anything.
func TestWorkerBatchWireRules(t *testing.T) {
	h, wk := workerHandler()
	eng, err := json.Marshal(wireBatch("", "", 0).Engine)
	if err != nil {
		t.Fatal(err)
	}
	engine := `"engine":` + string(eng)
	long := "[0" + strings.Repeat(",0", 1<<15-1) + "]" // 32 Ki tokens in 64 KiB
	cases := []struct {
		name, body string
		status     int
		message    string
	}{
		{"a delta body runs", `{"requests":[{"id":0,"prompt":[1,2,3,4,5,6,7,8],"outTokens":2},{"id":1,"shared":7,"prompt":[9],"outTokens":2}],` + engine + `}`, 200, ""},
		{"shared past the previous prompt", `{"requests":[{"id":0,"prompt":[1,2,3]},{"id":1,"shared":4,"prompt":[9]}],` + engine + `}`, 400, `"shared" 4 outside the previous prompt's 3 tokens at byte 56`},
		{"shared on the first request", `{"requests":[{"id":0,"shared":1,"prompt":[1]}],` + engine + `}`, 400, `"shared" 1 outside the previous prompt's 0 tokens at byte 30`},
		{"shared after prompt", `{"requests":[{"id":0,"prompt":[1,2,3]},{"id":1,"prompt":[9],"shared":2}],` + engine + `}`, 400, `"shared" after "prompt" at byte 69`},
		{"expanded-token cap", `{"requests":[{"prompt":` + long + `}` + strings.Repeat(`,{"shared":32768}`, 1<<10) + `],` + engine + `}`, 400, "prompts expand past 33554432 tokens"},
		{"trailing garbage", `{"requests":[{"id":0,"prompt":[1]}],` + engine + `}garbage`, 400, "trailing data after the batch at byte "},
		{"wrong-case key", `{"REQUESTS":[{"id":0,"prompt":[1]}],` + engine + `}`, 400, `unknown field "REQUESTS" at byte 1`},
		{"wrong-case request key", `{"requests":[{"Id":0,"prompt":[1]}],` + engine + `}`, 400, `unknown field "Id" at byte 14`},
		{"duplicate key", `{"requests":[{"id":0,"id":1,"prompt":[1]}],` + engine + `}`, 400, `duplicate field "id" at byte 21`},
		{"unknown request field", `{"requests":[{"id":0,"matched":1}],` + engine + `}`, 400, `unknown field "matched" at byte 21`},
		{"float token", `{"requests":[{"id":0,"prompt":[1.5]}],` + engine + `}`, 400, "number is not a plain integer at byte 31"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := wk.Stats()
			req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(tc.body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d: %s", rec.Code, tc.status, rec.Body.String())
			}
			if tc.status == http.StatusOK {
				if res := decode[backend.WireResult](t, rec); res.ModelCalls != 2 || res.Metrics.PromptTokens != 16 {
					t.Errorf("result = %+v, want 2 calls over 16 prompt tokens (8 + 7 shared + 1)", res)
				}
				return
			}
			env := decode[ErrorResponse](t, rec)
			if env.Error.Code != ErrCodeInvalidRequest || !strings.Contains(env.Error.Message, tc.message) {
				t.Errorf("error = %+v, want %s saying %q", env.Error, ErrCodeInvalidRequest, tc.message)
			}
			if after := wk.Stats(); after.Batches != before.Batches || after.Errors != before.Errors {
				t.Errorf("a refused body moved the worker's counters: %+v → %+v", before, after)
			}
		})
	}
}

// TestWorkerBatchBodyCap: one byte past the 64 MiB cap is a 400, decided
// from Content-Length before the body is buffered.
func TestWorkerBatchBodyCap(t *testing.T) {
	h, _ := workerHandler()
	body := io.MultiReader(strings.NewReader(`{"stageKey":"`), &zeros{n: backend.MaxWireBody}, strings.NewReader(`"}`))
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", body)
	req.ContentLength = backend.MaxWireBody + 1
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400: %s", rec.Code, rec.Body.String())
	}
	if env := decode[ErrorResponse](t, rec); env.Error.Code != ErrCodeInvalidRequest || !strings.Contains(env.Error.Message, "request body too large") {
		t.Errorf("error = %+v, want %s / request body too large", env.Error, ErrCodeInvalidRequest)
	}
}

// zeros reads as n '0' bytes.
type zeros struct{ n int }

func (z *zeros) Read(p []byte) (int, error) {
	if z.n == 0 {
		return 0, io.EOF
	}
	n := min(len(p), z.n)
	for i := range p[:n] {
		p[i] = '0'
	}
	z.n -= n
	return n, nil
}

// TestWorkerBatchUnencodableResult: an engine config that makes the metrics
// non-finite ("engine": {} — a zero cost model divides by zero) is a failed
// execution with a body, not a 200 without one.
func TestWorkerBatchUnencodableResult(t *testing.T) {
	h, wk := workerHandler()
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(`{"stageKey":"x","requests":[{"id":0,"prompt":[1],"outTokens":1}],"engine":{}}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422: %q", rec.Code, rec.Body.String())
	}
	if env := decode[ErrorResponse](t, rec); env.Error.Code != ErrCodeExecutionFailed || !strings.Contains(env.Error.Message, "encode result") {
		t.Errorf("error = %+v, want %s / encode result", env.Error, ErrCodeExecutionFailed)
	}
	if st := wk.Stats(); st.Batches != 0 || st.Errors != 1 {
		t.Errorf("stats = %+v, want the batch counted as failed, not served", st)
	}
}

func TestWorkerBatchWithoutWorker(t *testing.T) {
	// A plain (non -worker) server refuses /v1/batch with 503.
	rec := post(t, NewWithConfig(Config{}), "/v1/batch", wireBatch("", "", 1))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", rec.Code)
	}
}

func TestWorkerDraining(t *testing.T) {
	h, wk := workerHandler()
	wk.SetDraining(true)

	// Draining refuses new batches...
	rec := post(t, h, "/v1/batch", wireBatch("", "", 1))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("draining batch status = %d, want 503", rec.Code)
	}

	// ...and flips /healthz to 503 so routers mark the worker down.
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	hrec := httptest.NewRecorder()
	h.ServeHTTP(hrec, req)
	if hrec.Code != http.StatusServiceUnavailable {
		t.Errorf("draining /healthz status = %d, want 503", hrec.Code)
	}

	wk.SetDraining(false)
	hrec = httptest.NewRecorder()
	h.ServeHTTP(hrec, req)
	if hrec.Code != http.StatusOK {
		t.Errorf("recovered /healthz status = %d, want 200", hrec.Code)
	}
}

// TestWorkerOwnsFanOut: the worker cuts a grouped batch at the boundaries
// that arrived with it, DefaultShards wide over a plain backend, and leaves
// the width to the operator's own Sharded when the chain already holds one.
func TestWorkerOwnsFanOut(t *testing.T) {
	grouped := wireBatch("", "", 12)
	grouped.Groups = []int{0, 2, 4, 6, 8, 10}

	h, wk := workerHandler()
	rec := post(t, h, "/v1/batch", grouped)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if res := decode[backend.WireResult](t, rec); res.ModelCalls != 12 {
		t.Errorf("model calls = %d, want 12 (conserved across shards)", res.ModelCalls)
	}
	if st := wk.Stats(); st.Batches != 1 || st.ShardedBatches != 1 || st.ShardRuns != backend.DefaultShards {
		t.Errorf("stats = %+v, want 1 batch cut into %d shard runs", st, backend.DefaultShards)
	}
	// An ungrouped batch is served whole.
	post(t, h, "/v1/batch", wireBatch("", "", 3))
	if st := wk.Stats(); st.Batches != 2 || st.ShardedBatches != 1 {
		t.Errorf("stats = %+v, want the ungrouped batch served unsplit", st)
	}

	own, err := backend.NewSharded(backend.NewSim(), 2)
	if err != nil {
		t.Fatal(err)
	}
	wk = NewWorker(own, nil)
	if rec := post(t, NewWithConfig(Config{Worker: wk}), "/v1/batch", grouped); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if st := wk.Stats(); st.ShardedBatches != 1 || st.ShardRuns != 2 {
		t.Errorf("stats = %+v, want the operator's 2 shards, not a second fan-out", st)
	}
}

func TestWorkerMetricsEndpoint(t *testing.T) {
	h, _ := workerHandler()
	if rec := post(t, h, "/v1/batch", wireBatch("tenant-a", "batch", 2)); rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d", rec.Code)
	}
	grouped := wireBatch("tenant-a", "batch", 6)
	grouped.Groups = []int{0, 2, 4}
	if rec := post(t, h, "/v1/batch", grouped); rec.Code != http.StatusOK {
		t.Fatalf("grouped batch status = %d", rec.Code)
	}

	// JSON form.
	req := httptest.NewRequest(http.MethodGet, "/v1/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d: %s", rec.Code, rec.Body.String())
	}
	body := decode[map[string]WorkerStats](t, rec)
	if w := body["worker"]; w.Batches != 2 || w.Rows != 8 || w.ShardedBatches != 1 || w.ShardRuns != 3 {
		t.Errorf("worker metrics = %+v, want 2 batches / 8 rows, one of them cut into 3 shard runs", w)
	}
	for _, key := range []string{`"shardedBatches":1`, `"shardRuns":3`} {
		if !strings.Contains(rec.Body.String(), key) {
			t.Errorf("metrics JSON missing %s: %s", key, rec.Body.String())
		}
	}

	// Prometheus form.
	req = httptest.NewRequest(http.MethodGet, "/v1/metrics?format=prometheus", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("prometheus status = %d", rec.Code)
	}
	text := rec.Body.String()
	for _, want := range []string{
		"llmq_worker_batches_total 2",
		"llmq_worker_rows_total 8",
		"llmq_worker_draining 0",
		"llmq_worker_sharded_batches_total 1",
		"llmq_worker_shard_runs_total 3",
		`llmq_worker_client_batches_total{client="tenant-a"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}
