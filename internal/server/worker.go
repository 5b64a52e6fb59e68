package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/cluster"
)

// Worker is a cluster worker's serving state: the local backend that
// POST /v1/batch executes against, the drain flag the graceful-shutdown
// path and /healthz share, and per-client batch accounting so remote
// batches stay attributed to the tenant that caused them (the identity
// rides the wire envelope — see backend.WireBatch).
type Worker struct {
	be  backend.Backend
	log *slog.Logger

	draining atomic.Bool
	batches  atomic.Int64
	errors   atomic.Int64
	rows     atomic.Int64

	mu      sync.Mutex
	clients map[string]*workerClient // guarded by mu
}

// workerClient is one tenant's batch counters on this worker.
type workerClient struct {
	batches int64
	rows    int64
}

// NewWorker builds the worker state over the local backend be. log, when
// non-nil, gets one structured record per /v1/batch request.
//
// The worker owns its fan-out: a router sends each batch whole, groups
// included, and /v1/batch serves it through a backend.Sharded of
// backend.DefaultShards shards over be — unless be's chain already holds a
// Sharded (the operator's -shards N), which then decides the width.
func NewWorker(be backend.Backend, log *slog.Logger) *Worker {
	if backend.ShardedOf(be) == nil {
		be, _ = backend.NewSharded(be, backend.DefaultShards) // errs only on shards < 1
	}
	return &Worker{be: be, log: log, clients: make(map[string]*workerClient)}
}

// SetDraining flips the drain flag: a draining worker answers 503 on
// /healthz (so routers mark it down and re-ring its stages) and refuses new
// /v1/batch work while in-flight batches finish under the server's graceful
// shutdown.
func (wk *Worker) SetDraining(v bool) { wk.draining.Store(v) }

// Draining reports the drain flag.
func (wk *Worker) Draining() bool { return wk.draining.Load() }

// record accounts one served batch to its originating (normalized) tenant.
func (wk *Worker) record(client string, rows int) {
	wk.batches.Add(1)
	wk.rows.Add(int64(rows))
	wk.mu.Lock()
	defer wk.mu.Unlock()
	c := wk.clients[client]
	if c == nil {
		c = &workerClient{}
		wk.clients[client] = c
	}
	c.batches++
	c.rows += int64(rows)
}

// WorkerStats is the worker's batch-serving accounting, the /v1/metrics
// body in worker mode.
//
// Counting fields are conserved accounting: the llmqlint accounting
// analyzer rejects keyed literals that set some counters and omit others.
//
//llmqlint:accounting
type WorkerStats struct {
	// Batches counts batches served; Errors the batches that failed; Rows
	// the requests across served batches.
	Batches int64 `json:"batches"`
	Errors  int64 `json:"errors"`
	Rows    int64 `json:"rows"`
	// Clients maps originating tenant to its share.
	Clients map[string]WorkerClientStats `json:"clients,omitempty"`
	// Draining reports the drain flag.
	Draining bool `json:"draining"`
	// ShardedBatches counts served batches the worker cut at their group
	// boundaries; ShardRuns the sub-batches those became (backend.ShardStats)
	// — their ratio is the worker's fan-out width.
	ShardedBatches int64 `json:"shardedBatches"`
	ShardRuns      int64 `json:"shardRuns"`
}

// WorkerClientStats is one tenant's share of a worker's batches.
//
// Counting fields are conserved accounting: the llmqlint accounting
// analyzer rejects keyed literals that set some counters and omit others.
//
//llmqlint:accounting
type WorkerClientStats struct {
	Batches int64 `json:"batches"`
	Rows    int64 `json:"rows"`
}

// Stats snapshots the worker counters.
func (wk *Worker) Stats() WorkerStats {
	ss := backend.ShardStatsOf(wk.be)
	st := WorkerStats{
		Batches:        wk.batches.Load(),
		Errors:         wk.errors.Load(),
		Rows:           wk.rows.Load(),
		Draining:       wk.Draining(),
		ShardedBatches: ss.ShardedBatches,
		ShardRuns:      ss.ShardRuns,
	}
	wk.mu.Lock()
	defer wk.mu.Unlock()
	if len(wk.clients) > 0 {
		st.Clients = make(map[string]WorkerClientStats, len(wk.clients))
		for id, c := range wk.clients {
			st.Clients[id] = WorkerClientStats{Batches: c.batches, Rows: c.rows}
		}
	}
	return st
}

// handleBatch serves POST /v1/batch: one backend.WireBatch executed on the
// worker's local backend, answering a backend.WireResult — the wire half of
// backend.Remote. Errors ride the uniform /v1 envelope, so the router's
// failover logic dispatches on the same codes every client does.
func handleBatch(cfg Config, w http.ResponseWriter, r *http.Request) {
	wk := cfg.Worker
	if wk == nil {
		writeError(w, http.StatusServiceUnavailable, ErrCodeUnavailable,
			fmt.Errorf("not a cluster worker; start the server with -worker"))
		return
	}
	if wk.Draining() {
		// Retry-After steers a well-behaved client past the drain window
		// instead of hammering. backend.Remote does not read it: the
		// router fails over to the next ring node at once.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, ErrCodeUnavailable,
			fmt.Errorf("worker is draining"))
		return
	}
	if !requirePOST(w, r) {
		return
	}
	body, err := readBatchBody(w, r)
	var wb backend.WireBatch
	if err == nil {
		wb, err = backend.DecodeWireBatch(body)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	spec, err := wb.Spec()
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest, err)
		return
	}
	// The request context already dies with the router's connection; the
	// deadline header additionally bounds the run when the caller's budget
	// is tighter than the transport's view of it.
	ctx := r.Context()
	if h := r.Header.Get(backend.DeadlineHeader); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			writeError(w, http.StatusBadRequest, ErrCodeInvalidRequest,
				fmt.Errorf("invalid %s header %q", backend.DeadlineHeader, h))
			return
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		defer cancel()
	}
	start := time.Now()
	res, err := wk.be.RunBatch(ctx, spec)
	client := string(normalizeClient(wb.Client))
	code := "ok"
	var out []byte
	if err == nil {
		// Encoded before the status goes out: metrics an engine config made
		// non-finite (a zero cost model divides by zero) do not marshal, and
		// a 200 with an empty body reads to a router as a broken worker.
		if out, err = json.Marshal(backend.WireResult{Metrics: res.Metrics, ModelCalls: res.ModelCalls}); err != nil {
			err = fmt.Errorf("encode result: %w", err)
		}
	}
	if err == nil {
		wk.record(client, len(spec.Requests))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(out) // the router's read fails if this does; nothing to add here
	} else {
		wk.errors.Add(1)
		code = writeExecError(w, err)
	}
	if wk.log != nil {
		wk.log.Info("batch",
			"client", client,
			"class", wb.Class,
			"stageKey", shortStageKey(wb.StageKey),
			"rows", len(spec.Requests),
			"code", code,
			"wallMs", float64(time.Since(start).Microseconds())/1e3)
	}
}

// readBatchBody reads a /v1/batch body whole for the wire's own decoder,
// under the cap every /v1 body has; a declared length past the cap is
// refused unread. Nothing references the bytes once they are decoded.
func readBatchBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.ContentLength > backend.MaxWireBody {
		return nil, &http.MaxBytesError{Limit: backend.MaxWireBody}
	}
	var body bytes.Buffer
	body.Grow(int(max(r.ContentLength, 0)) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF without growing
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, backend.MaxWireBody))
	return body.Bytes(), err
}

// shortStageKey truncates the stage fingerprint for log lines; full keys
// run to hundreds of bytes.
func shortStageKey(k string) string {
	if len(k) > 32 {
		return k[:32] + "…"
	}
	return k
}

// renderWorkerPrometheus serializes the worker's batch accounting in the
// Prometheus text exposition format — the worker-mode half of /v1/metrics.
func renderWorkerPrometheus(st WorkerStats) string {
	var b strings.Builder
	w := promWriter{b: &b}
	w.family("llmq_worker_batches_total", "counter", "Remote batches served by this worker.")
	w.row("llmq_worker_batches_total", "", float64(st.Batches))
	w.family("llmq_worker_errors_total", "counter", "Remote batches that failed on this worker.")
	w.row("llmq_worker_errors_total", "", float64(st.Errors))
	w.family("llmq_worker_rows_total", "counter", "Requests served across remote batches.")
	w.row("llmq_worker_rows_total", "", float64(st.Rows))
	w.family("llmq_worker_draining", "gauge", "1 while the worker is draining.")
	w.row("llmq_worker_draining", "", boolGauge(st.Draining))
	w.family("llmq_worker_sharded_batches_total", "counter", "Served batches this worker cut at their group boundaries.")
	w.row("llmq_worker_sharded_batches_total", "", float64(st.ShardedBatches))
	w.family("llmq_worker_shard_runs_total", "counter", "Sub-batches the cut batches became on the local backend.")
	w.row("llmq_worker_shard_runs_total", "", float64(st.ShardRuns))
	if len(st.Clients) > 0 {
		ids := make([]string, 0, len(st.Clients))
		for id := range st.Clients {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		w.family("llmq_worker_client_batches_total", "counter", "Remote batches per originating client.")
		for _, id := range ids {
			w.row("llmq_worker_client_batches_total", labels("client", id), float64(st.Clients[id].Batches))
		}
		w.family("llmq_worker_client_rows_total", "counter", "Requests per originating client.")
		for _, id := range ids {
			w.row("llmq_worker_client_rows_total", labels("client", id), float64(st.Clients[id].Rows))
		}
	}
	return b.String()
}

func boolGauge(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// breakerGauge encodes a circuit-breaker state for the Prometheus gauge:
// 0 closed, 1 half-open, 2 open.
func breakerGauge(s cluster.BreakerState) float64 {
	switch s {
	case cluster.BreakerOpen:
		return 2
	case cluster.BreakerHalfOpen:
		return 1
	default:
		return 0
	}
}
