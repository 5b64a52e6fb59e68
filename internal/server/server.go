// Package server exposes the reordering optimizer as an HTTP service, the
// integration path the paper targets ("can be easily applied to existing
// analytics systems and serving platforms"): an analytics engine POSTs the
// rows and fields an LLM operator is about to send, and receives the
// cache-maximizing request schedule plus the expected savings. With a
// serving runtime attached (Config.Runtime), the service additionally
// executes whole LLM-SQL statements over its registered tables on POST
// /v1/sql — concurrent requests share the runtime's result cache and
// cross-query batcher, so a fleet of dashboard clients costs far fewer
// model calls than the statements run in isolation.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/llmsim"
	"repro/internal/obs"
	"repro/internal/pricing"
	"repro/internal/query"
	"repro/internal/runtime"
	"repro/internal/table"
	"repro/internal/tokenizer"
)

// Error codes of the /v1 error envelope: every /v1/* error response is
//
//	{"error": {"code": "<one of these>", "message": "<human text>"}}
//
// Codes are stable API; messages are not. See docs/API.md.
const (
	// ErrCodeInvalidRequest — the body failed to decode or validate (400).
	ErrCodeInvalidRequest = "invalid_request"
	// ErrCodeMethodNotAllowed — wrong HTTP method for the endpoint (405).
	ErrCodeMethodNotAllowed = "method_not_allowed"
	// ErrCodeExecutionFailed — the statement was well-formed but failed to
	// plan or execute (422).
	ErrCodeExecutionFailed = "execution_failed"
	// ErrCodeQuotaExceeded — the client's quota buckets are overdrawn (429);
	// the response carries a Retry-After header and retryAfterMs field.
	ErrCodeQuotaExceeded = "quota_exceeded"
	// ErrCodeCanceled — the request's context died before completion (499,
	// the nginx client-closed-request convention).
	ErrCodeCanceled = "canceled"
	// ErrCodeUnavailable — no serving runtime is attached (503).
	ErrCodeUnavailable = "unavailable"
	// ErrCodeDeadlineExceeded — the statement's deadline expired (504).
	ErrCodeDeadlineExceeded = "deadline_exceeded"
	// ErrCodeInternal — an invariant broke server-side (500).
	ErrCodeInternal = "internal"
)

// ErrorBody is the inner error object of the /v1 envelope.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterMs rides only on quota_exceeded: how long until the client's
	// buckets refill (the Retry-After header carries the same figure in
	// whole seconds).
	RetryAfterMs int64 `json:"retryAfterMs,omitempty"`
}

// ErrorResponse is the uniform /v1 error envelope.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// TableJSON is the wire form of an input relation.
type TableJSON struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	// FDs lists bidirectional functional-dependency groups.
	FDs [][]string `json:"fds,omitempty"`
}

// decode materializes the wire table.
func (tj *TableJSON) decode() (*table.Table, error) {
	if len(tj.Columns) == 0 {
		return nil, fmt.Errorf("table needs at least one column")
	}
	seen := map[string]bool{}
	for _, c := range tj.Columns {
		if c == "" || seen[c] {
			return nil, fmt.Errorf("invalid or duplicate column %q", c)
		}
		seen[c] = true
	}
	t := table.New(tj.Columns...)
	for i, r := range tj.Rows {
		if err := t.AppendRow(r...); err != nil {
			return nil, fmt.Errorf("row %d: %w", i, err)
		}
	}
	fds := table.NewFDSet()
	for _, g := range tj.FDs {
		fds.AddGroup(g...)
	}
	if err := t.SetFDs(fds); err != nil {
		return nil, err
	}
	return t, nil
}

// ReorderRequest is the /v1/reorder body.
type ReorderRequest struct {
	Table TableJSON `json:"table"`
	// Algorithm: "ggr" (default), "ophr", or "bestfixed".
	Algorithm string `json:"algorithm,omitempty"`
	// Exhaustive disables GGR early stopping.
	Exhaustive bool `json:"exhaustive,omitempty"`
}

// ReorderResponse carries the schedule in serving order.
type ReorderResponse struct {
	Rows        []ScheduledRow `json:"rows"`
	PHC         int64          `json:"phc"`
	HitRate     float64        `json:"hitRate"`
	SolverMs    float64        `json:"solverMs"`
	RowCount    int            `json:"rowCount"`
	ColumnCount int            `json:"columnCount"`
}

// ScheduledRow is one request of the schedule.
type ScheduledRow struct {
	Source int      `json:"source"`
	Fields []string `json:"fields"`
}

// EstimateRequest is the /v1/estimate body.
type EstimateRequest struct {
	// Provider: "openai", "anthropic", or "gemini".
	Provider    string  `json:"provider"`
	HitOriginal float64 `json:"hitOriginal"`
	HitGGR      float64 `json:"hitGGR"`
}

// EstimateResponse reports the relative input-cost reduction.
type EstimateResponse struct {
	Book    string  `json:"book"`
	Savings float64 `json:"savings"`
}

// SimulateRequest is the /v1/simulate body: run a prompt over the table on
// the serving simulator under a policy.
type SimulateRequest struct {
	Table  TableJSON `json:"table"`
	Prompt string    `json:"prompt"`
	// Policy: "no-cache", "cache-original", "cache-ggr" (default).
	Policy string `json:"policy,omitempty"`
	// OutTokens is the per-row output budget (default 8).
	OutTokens int `json:"outTokens,omitempty"`
}

// SimulateResponse reports engine metrics for the run.
type SimulateResponse struct {
	JCT           float64 `json:"jctSeconds"`
	HitRate       float64 `json:"hitRate"`
	PromptTokens  int64   `json:"promptTokens"`
	MatchedTokens int64   `json:"matchedTokens"`
	MaxBatch      int     `json:"maxBatch"`
	SolverMs      float64 `json:"solverMs"`
}

// Config wires the optional service collaborators.
type Config struct {
	// Runtime, when non-nil, serves POST /v1/sql, GET /v1/metrics, and
	// GET /v1/traces; those endpoints respond 503 without it.
	Runtime *runtime.Runtime
	// Worker, when non-nil, serves POST /v1/batch against its local backend
	// (cluster worker mode, llmqserve -worker); without it that endpoint
	// responds 503. A draining worker also answers 503 on /healthz so
	// cluster routers mark it down before shutdown.
	Worker *Worker
	// AccessLog, when non-nil, gets one structured record per /v1/sql
	// request: client, class, outcome code, queue wait, JCT, and model calls.
	// A Worker logs its /v1/batch requests to the same logger.
	AccessLog *slog.Logger
	// Cluster, when non-nil, serves the GET/POST /v1/cluster/workers fleet
	// admin endpoint: list the live worker set and join/remove workers on
	// the running router (live ring rebalance). Without it that endpoint
	// responds 503. The router's accounting is also the "cluster" section of
	// GET /v1/metrics.
	Cluster *cluster.Router
}

// NewWithConfig builds the full service mux. cfg.Runtime, when non-nil,
// serves POST /v1/sql — LLM-SQL statements over the runtime's registered
// tables, executed concurrently with cross-query batching and result caching
// — GET /v1/metrics, the fleet-wide runtime accounting (JSON by default,
// Prometheus text with ?format=prometheus or Accept: text/plain), and
// GET /v1/traces, the retained statement traces (explicitly traced plus
// slow-query captures).
func NewWithConfig(cfg Config) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		handleHealth(cfg, w, r)
	})
	mux.HandleFunc("/v1/reorder", handleReorder)
	mux.HandleFunc("/v1/estimate", handleEstimate)
	mux.HandleFunc("/v1/simulate", handleSimulate)
	mux.HandleFunc("/v1/sql", func(w http.ResponseWriter, r *http.Request) {
		handleSQL(cfg, w, r)
	})
	mux.HandleFunc("/v1/batch", func(w http.ResponseWriter, r *http.Request) {
		handleBatch(cfg, w, r)
	})
	mux.HandleFunc("/v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		handleMetrics(cfg, w, r)
	})
	mux.HandleFunc("/v1/traces", func(w http.ResponseWriter, r *http.Request) {
		handleTraces(cfg.Runtime, w, r)
	})
	mux.HandleFunc("/v1/cluster/workers", func(w http.ResponseWriter, r *http.Request) {
		handleClusterWorkers(cfg, w, r)
	})
	return mux
}

// ClusterWorkersRequest is the POST /v1/cluster/workers body: one live
// fleet-membership change on the running router.
type ClusterWorkersRequest struct {
	// Op is "add" or "remove".
	Op string `json:"op"`
	// Addr is the worker address ("host:port" or a full URL).
	Addr string `json:"addr"`
}

// ClusterWorkersResponse answers both GET and POST with the resulting live
// worker set.
type ClusterWorkersResponse struct {
	Workers []string `json:"workers"`
}

// handleClusterWorkers serves the fleet admin endpoint: GET lists the live
// worker set; POST {"op":"add"|"remove","addr":...} rebalances the
// consistent-hash ring on the running router — ~1/N of stages move, batches
// in flight on a removed worker drain on their old assignment.
func handleClusterWorkers(cfg Config, w http.ResponseWriter, r *http.Request) {
	if cfg.Cluster == nil {
		writeError(w, http.StatusServiceUnavailable, ErrCodeUnavailable,
			fmt.Errorf("no cluster router attached; start llmqserve with -backend remote"))
		return
	}
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, ClusterWorkersResponse{Workers: cfg.Cluster.Workers()})
	case http.MethodPost:
		var req ClusterWorkersRequest
		if !readJSON(w, r, &req) {
			return
		}
		if req.Addr == "" {
			writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest,
				fmt.Errorf("missing worker addr"))
			return
		}
		var err error
		switch req.Op {
		case "add":
			err = cfg.Cluster.AddWorker(req.Addr)
		case "remove":
			err = cfg.Cluster.RemoveWorker(req.Addr)
		default:
			writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest,
				fmt.Errorf("unknown op %q: want add or remove", req.Op))
			return
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, ClusterWorkersResponse{Workers: cfg.Cluster.Workers()})
	default:
		writeError(w, http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed,
			fmt.Errorf("method %s not allowed", r.Method))
	}
}

// SQLOptions is the execution-options envelope of a /v1/sql request — the
// home of every plan/policy toggle, so QoS identity (client, class,
// deadline) and execution tuning don't share a flat namespace.
type SQLOptions struct {
	// Naive runs the statement's unoptimized plan (no pushdown, dedup, or
	// cost-ordered filter cascade) for A/B comparison.
	Naive bool `json:"naive,omitempty"`
	// Policy overrides the scheduling policy for this statement:
	// "no-cache", "cache-original", or "cache-ggr" ("" keeps the runtime's
	// default).
	Policy string `json:"policy,omitempty"`
	// Trace records a span tree for this statement — EXPLAIN ANALYZE for the
	// serving path — returned in the response's "trace" field and retained
	// in GET /v1/traces. Untraced statements pay nothing.
	Trace bool `json:"trace,omitempty"`
}

// SQLRequest is the /v1/sql body: one LLM-SQL statement over the serving
// runtime's registered tables, executed as the named client and class.
type SQLRequest struct {
	SQL string `json:"sql"`
	// Client names the tenant this statement runs for: its fair-admission
	// flow, quota bucket, and per-client metrics row. Empty accounts under
	// the runtime's default (anonymous) client.
	Client string `json:"client,omitempty"`
	// Class is the statement's service class, "interactive" (default) or
	// "batch": it selects the admission weight and the micro-batcher's
	// coalescing window.
	Class string `json:"class,omitempty"`
	// DeadlineMs bounds the statement's total time in milliseconds. The
	// deadline also closes any batch window the statement is parked in
	// early, so a deadlined statement is not taxed by coalescing.
	DeadlineMs int64 `json:"deadlineMs,omitempty"`
	// Options is the execution-options envelope.
	Options *SQLOptions `json:"options,omitempty"`
}

// SQLResponse carries the result relation, the statement's own serving
// statistics, and the runtime's fleet-wide totals. Its size is a function of
// the statement alone: the breakdowns that grow with served history or fleet
// size (stages, clients, queueWait, cluster) are GET /v1/metrics' to serve.
type SQLResponse struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	// Client / Class echo the identity the statement was accounted under
	// (normalized: empty client maps to the runtime default, empty class to
	// interactive).
	Client string `json:"client"`
	Class  string `json:"class"`
	// JCT attributes every coalesced engine run the statement waited on;
	// LLMCalls counts only rows this statement itself sent to an engine
	// (cache hits and piggybacked calls are free).
	JCT      float64 `json:"jctSeconds"`
	HitRate  float64 `json:"hitRate"`
	SolverMs float64 `json:"solverMs"`
	LLMCalls int     `json:"llmCalls"`
	Stages   int     `json:"stages"`
	// Deprecated warns, per deprecated request field used, what to use
	// instead (docs/API.md, deprecation policy). Absent when the request used
	// only current fields — always, today: no field is in its window.
	Deprecated []string `json:"deprecated,omitempty"`
	// Trace is the statement's span tree, present only when the request set
	// options.trace. See docs/API.md for the schema.
	Trace *obs.Trace `json:"trace,omitempty"`
	// Runtime is the fleet-wide fixed-size accounting after this statement
	// finished.
	Runtime runtime.Totals `json:"runtime"`
}

func handleSQL(cfg Config, w http.ResponseWriter, r *http.Request) {
	rt := cfg.Runtime
	if rt == nil {
		writeError(w, http.StatusServiceUnavailable, ErrCodeUnavailable,
			fmt.Errorf("no serving runtime attached; start the server with registered tables (llmqserve -csv/-dataset)"))
		return
	}
	var req SQLRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.SQL == "" {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, fmt.Errorf("sql is required"))
		return
	}
	class, err := runtime.ParseClass(req.Class)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, err)
		return
	}
	if req.DeadlineMs < 0 {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest,
			fmt.Errorf("deadlineMs must be >= 0, got %d", req.DeadlineMs))
		return
	}
	opts := runtime.Options{Client: runtime.ClientID(req.Client), Class: class}
	if req.Options != nil {
		opts.Naive = req.Options.Naive
		opts.Policy = query.Policy(req.Options.Policy)
		opts.Trace = req.Options.Trace
	}
	// The statement is scoped to the request: a client that disconnects (or
	// times out) cancels its statement instead of leaving it running. A
	// request deadline tightens that scope.
	ctx := r.Context()
	if req.DeadlineMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMs)*time.Millisecond)
		defer cancel()
	}
	// Submit + Wait (rather than ExecContext) keeps the handle: the settled
	// summary feeds the access log and the trace rides the response.
	h := rt.SubmitContext(ctx, req.SQL, opts)
	res, err := h.Wait()
	code := "ok"
	if err != nil {
		code = writeExecError(w, err)
	} else {
		resp := SQLResponse{
			Columns:  res.Columns,
			Rows:     res.Rows,
			Client:   string(normalizeClient(req.Client)),
			Class:    string(class),
			JCT:      res.JCT,
			HitRate:  res.HitRate,
			SolverMs: res.SolverSeconds * 1000,
			LLMCalls: res.LLMCalls,
			Stages:   res.Stages,
			Runtime:  rt.Totals(),
		}
		if opts.Trace {
			resp.Trace = h.Trace()
		}
		writeJSON(w, http.StatusOK, resp)
	}
	if cfg.AccessLog != nil {
		sum := h.Summary()
		cfg.AccessLog.Info("sql",
			"client", string(normalizeClient(req.Client)),
			"class", string(class),
			"code", code,
			"queueWaitMs", float64(sum.QueueWait.Microseconds())/1e3,
			"jctSeconds", sum.JCTSeconds,
			"llmCalls", sum.LLMCalls)
	}
}

// normalizeClient mirrors the runtime's admission normalization for the
// response echo.
func normalizeClient(c string) runtime.ClientID {
	if c == "" {
		return runtime.DefaultClient
	}
	return runtime.ClientID(c)
}

// writeExecError maps a statement's or a worker batch's execution error onto
// the envelope: quota breaches become 429 with a retry horizon, context
// deaths keep their cancellation statuses, everything else is an execution
// failure. It returns the error code it wrote (the access logs' outcome).
func writeExecError(w http.ResponseWriter, err error) string {
	var qe *runtime.QuotaError
	switch {
	case errors.As(err, &qe):
		secs := int64(math.Ceil(qe.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: ErrorBody{
			Code:         ErrCodeQuotaExceeded,
			Message:      err.Error(),
			RetryAfterMs: qe.RetryAfter.Milliseconds(),
		}})
		return ErrCodeQuotaExceeded
	case errors.Is(err, context.Canceled):
		writeError(w, 499, ErrCodeCanceled, err) // client closed request (nginx convention)
		return ErrCodeCanceled
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, ErrCodeDeadlineExceeded, err)
		return ErrCodeDeadlineExceeded
	default:
		writeError(w, http.StatusUnprocessableEntity, ErrCodeExecutionFailed, err)
		return ErrCodeExecutionFailed
	}
}

// handleHealth answers liveness probes. A draining worker reports 503 so
// cluster routers mark it down and fail its stages over while in-flight
// batches finish under graceful shutdown.
func handleHealth(cfg Config, w http.ResponseWriter, r *http.Request) {
	if cfg.Worker != nil && cfg.Worker.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Metrics is the GET /v1/metrics body: the runtime's whole accounting plus,
// when a router is attached to the server, the fleet's — per-worker
// batches/retries/errors/markdowns, ring moves, hot-stage replications,
// hedges. Embedding keeps the JSON object flat.
type Metrics struct {
	runtime.Metrics
	Cluster *cluster.Metrics `json:"cluster,omitempty"`
}

// Metrics snapshots cfg.Runtime (which must be non-nil) and cfg.Cluster: the
// one source of /v1/metrics JSON, its Prometheus form and llmqserve's
// debug listener.
func (cfg Config) Metrics() Metrics {
	m := Metrics{Metrics: cfg.Runtime.Metrics()}
	if cfg.Cluster != nil {
		cm := cfg.Cluster.Metrics()
		m.Cluster = &cm
	}
	return m
}

// handleMetrics serves GET /v1/metrics: the fleet-wide runtime accounting,
// totals and breakdowns (a /v1/sql response carries the totals only). JSON by
// default; ?format=prometheus (or an Accept header preferring text/plain)
// switches to the Prometheus text exposition format. A runtime-less cluster
// worker serves its batch accounting instead.
func handleMetrics(cfg Config, w http.ResponseWriter, r *http.Request) {
	rt := cfg.Runtime
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	if rt == nil && cfg.Worker == nil {
		writeError(w, http.StatusServiceUnavailable, ErrCodeUnavailable,
			fmt.Errorf("no serving runtime attached; start the server with registered tables (llmqserve -csv/-dataset)"))
		return
	}
	format := r.URL.Query().Get("format")
	switch format {
	case "", "json", "prometheus":
	default:
		writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest,
			fmt.Errorf("unknown format %q (want json or prometheus)", format))
		return
	}
	prom := format == "prometheus" ||
		(format == "" && strings.HasPrefix(r.Header.Get("Accept"), "text/plain"))
	if rt == nil {
		// Worker mode: batch-serving accounting only.
		st := cfg.Worker.Stats()
		if prom {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write([]byte(renderWorkerPrometheus(st)))
			return
		}
		writeJSON(w, http.StatusOK, map[string]WorkerStats{"worker": st})
		return
	}
	if prom {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(renderPrometheus(cfg.Metrics())))
		return
	}
	writeJSON(w, http.StatusOK, cfg.Metrics())
}

// TracesResponse is the GET /v1/traces body: retained statement traces,
// newest first — statements that opted in with options.trace plus those the
// slow-query threshold captured.
type TracesResponse struct {
	Traces []*obs.Trace `json:"traces"`
}

func handleTraces(rt *runtime.Runtime, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed, fmt.Errorf("use GET"))
		return
	}
	if rt == nil {
		writeError(w, http.StatusServiceUnavailable, ErrCodeUnavailable,
			fmt.Errorf("no serving runtime attached; start the server with registered tables (llmqserve -csv/-dataset)"))
		return
	}
	traces := rt.Traces()
	if traces == nil {
		traces = []*obs.Trace{}
	}
	writeJSON(w, http.StatusOK, TracesResponse{Traces: traces})
}

func handleReorder(w http.ResponseWriter, r *http.Request) {
	var req ReorderRequest
	if !readJSON(w, r, &req) {
		return
	}
	t, err := req.Table.decode()
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, err)
		return
	}
	start := time.Now()
	res, err := core.Solve(t, req.Algorithm, core.SolveOptions{LenOf: tokenizer.Count, Exhaustive: req.Exhaustive})
	switch {
	case errors.Is(err, core.ErrUnknownAlgorithm):
		writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, err)
		return
	case errors.Is(err, core.ErrBudget):
		writeError(w, http.StatusUnprocessableEntity, ErrCodeExecutionFailed, err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, ErrCodeInternal, err)
		return
	}
	solver := time.Since(start)
	out := ReorderResponse{
		PHC:         res.PHC,
		HitRate:     core.Hits(res.Schedule, tokenizer.Count).Rate(),
		SolverMs:    float64(solver.Microseconds()) / 1000,
		RowCount:    t.NumRows(),
		ColumnCount: t.NumCols(),
	}
	for _, row := range res.Schedule.Rows {
		fields := make([]string, len(row.Cells))
		for i, c := range row.Cells {
			fields[i] = c.Field
		}
		out.Rows = append(out.Rows, ScheduledRow{Source: row.Source, Fields: fields})
	}
	writeJSON(w, http.StatusOK, out)
}

func handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req EstimateRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.HitOriginal < 0 || req.HitOriginal > 1 || req.HitGGR < 0 || req.HitGGR > 1 {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, fmt.Errorf("hit rates must be in [0,1]"))
		return
	}
	var book pricing.Book
	switch pricing.Provider(req.Provider) {
	case pricing.OpenAI:
		book = pricing.GPT4oMini
	case pricing.Anthropic:
		book = pricing.Claude35Sonnet
	case pricing.Gemini:
		book = pricing.GeminiFlash15
	default:
		writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, fmt.Errorf("unknown provider %q", req.Provider))
		return
	}
	writeJSON(w, http.StatusOK, EstimateResponse{
		Book:    book.Name,
		Savings: pricing.EstimatedSavings(book, req.HitOriginal, req.HitGGR),
	})
}

func handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if !readJSON(w, r, &req) {
		return
	}
	t, err := req.Table.decode()
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, err)
		return
	}
	if t.NumRows() == 0 {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, fmt.Errorf("table has no rows"))
		return
	}
	if req.Prompt == "" {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, fmt.Errorf("prompt is required"))
		return
	}
	policy := query.Policy(req.Policy)
	if req.Policy == "" {
		policy = query.CacheGGR
	}
	out := req.OutTokens
	if out <= 0 {
		out = 8
	}
	spec := query.Spec{
		Name: "http-simulate", Dataset: "http", Type: query.Projection,
		UserPrompt: req.Prompt, OutTokens: out,
	}
	st, err := query.RunStageContext(r.Context(), spec, t, query.Config{
		Policy: policy, Model: llmsim.Llama3_8B, Cluster: llmsim.SingleL4,
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, SimulateResponse{
		JCT:           st.Metrics.JCT,
		HitRate:       st.Metrics.HitRate(),
		PromptTokens:  st.Metrics.PromptTokens,
		MatchedTokens: st.Metrics.MatchedTokens,
		MaxBatch:      st.Metrics.MaxRunning,
		SolverMs:      st.SolverSeconds * 1000,
	})
}

// requirePOST answers 405 for any other method.
func requirePOST(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed, fmt.Errorf("use POST"))
		return false
	}
	return true
}

// readJSON enforces POST + a body-size cap and decodes into dst.
func readJSON(w http.ResponseWriter, r *http.Request, dst interface{}) bool {
	if !requirePOST(w, r) {
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, backend.MaxWireBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, fmt.Errorf("decode request: %w", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits the uniform /v1 error envelope. Every error path of
// every /v1 endpoint goes through here (or writeExecError, which adds the
// quota retry horizon), so clients can always dispatch on error.code.
func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, ErrorResponse{Error: ErrorBody{Code: code, Message: err.Error()}})
}
