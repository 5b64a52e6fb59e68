package backend

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Remote is the network Backend: it ships each BatchSpec to a cluster
// worker's POST /v1/batch endpoint and returns the worker's BatchResult.
// The driver-style seam was designed precisely so this drops in — answers
// are content-keyed above the seam, so a remote batch returns byte-identical
// relations; only the serving cost moves to another process.
//
// Context propagation: the caller's ctx rides the HTTP request, so a
// canceled statement aborts the in-flight request and the worker's engine
// stops between steps (the worker serves against its request context). A
// ctx deadline additionally travels as the Deadline-Ms header so the worker
// bounds its own run even if the connection lingers.
//
// Failures: connect errors and 5xx responses (a draining or overloaded
// worker answers 503) are transient; 4xx responses are deterministic
// rejections. RunBatch makes exactly one POST either way and never retries:
// cluster.Router's candidate walk is the one place a batch is sent again.
// Only a successful POST's BatchResult is returned, so a failed attempt
// contributes no metrics.
type Remote struct {
	addr string
	url  string
	hc   *http.Client

	batches atomic.Int64
	errors  atomic.Int64
	closed  atomic.Bool
}

var _ Backend = (*Remote)(nil)

// DeadlineHeader carries the caller's remaining deadline budget in whole
// milliseconds on a /v1/batch request.
const DeadlineHeader = "X-Llmq-Deadline-Ms"

// RemoteConfig wires a Remote backend to one worker.
type RemoteConfig struct {
	// Addr is the worker's address: "host:port" or a full http(s) URL.
	Addr string
	// Client is the HTTP client to use; nil builds one with no overall
	// timeout (the per-batch ctx bounds each request).
	Client *http.Client
}

// NewRemote builds a Remote speaking to one worker. The address may be a
// bare host:port (http is assumed) or a full URL.
func NewRemote(cfg RemoteConfig) (*Remote, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("backend: remote backend needs a worker address")
	}
	base := cfg.Addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	hc := cfg.Client
	if hc == nil {
		hc = &http.Client{}
	}
	return &Remote{addr: cfg.Addr, url: base + "/v1/batch", hc: hc}, nil
}

// RemoteStats is the remote backend's dispatch accounting.
//
// Counting fields are conserved accounting: the llmqlint accounting
// analyzer rejects keyed literals that set some counters and omit others.
//
//llmqlint:accounting
type RemoteStats struct {
	// Batches counts batches served successfully; Errors the batches that
	// failed for any reason but the caller's own cancellation.
	Batches int64
	Errors  int64
}

// Stats snapshots the dispatch counters.
func (r *Remote) Stats() RemoteStats {
	return RemoteStats{Batches: r.batches.Load(), Errors: r.errors.Load()}
}

// RemoteError is a worker's structured rejection: the /v1 error envelope
// plus the HTTP status it rode on. Status >= 500 (and connect errors, which
// produce no RemoteError) are transient — retryable and grounds for a
// router to mark the worker down; 4xx are deterministic and final.
type RemoteError struct {
	Addr    string
	Status  int
	Code    string
	Message string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("worker %s: %s (%s, http %d)", e.Addr, e.Message, e.Code, e.Status)
}

// Transient reports whether retrying the same batch could succeed.
func (e *RemoteError) Transient() bool { return e.Status >= 500 }

// wireEnvelope mirrors the /v1 error envelope without importing the server
// package (which imports this one).
type wireEnvelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// RunBatch ships the batch to the worker in one POST and returns its
// result. The statement's trace gets a "remote" child span carrying the
// worker address.
func (r *Remote) RunBatch(ctx context.Context, spec BatchSpec) (BatchResult, error) {
	if err := ctx.Err(); err != nil {
		return BatchResult{}, err
	}
	if r.closed.Load() {
		return BatchResult{}, fmt.Errorf("backend: remote backend is closed")
	}
	// Never pooled: the transport may still be writing the body when a
	// failed round trip returns, and says nothing when it is done.
	body, err := EncodeWireBatch(spec, ClientInfoFrom(ctx)).AppendJSON(nil)
	if err != nil {
		return BatchResult{}, err
	}
	sp := obs.FromContext(ctx).Child("remote")
	sp.Set("worker", r.addr)
	sp.Set("requests", len(spec.Requests))
	defer sp.End()

	res, err := r.post(ctx, body)
	if err != nil {
		// The caller's own death is not the worker's failure: surface
		// ctx.Err() so the seam's cancellation contract holds.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return BatchResult{}, ctxErr
		}
		r.errors.Add(1)
		sp.Set("error", err.Error())
		return BatchResult{}, err
	}
	r.batches.Add(1)
	sp.Set("modelCalls", res.ModelCalls)
	return res, nil
}

// post performs one POST /v1/batch round trip.
func (r *Remote) post(ctx context.Context, body []byte) (BatchResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.url, bytes.NewReader(body))
	if err != nil {
		return BatchResult{}, fmt.Errorf("backend: build request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.Header.Set(DeadlineHeader, strconv.FormatInt(ms, 10))
		}
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return BatchResult{}, fmt.Errorf("backend: post %s: %w", r.url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, MaxWireBody))
	if err != nil {
		return BatchResult{}, fmt.Errorf("backend: read %s response: %w", r.url, err)
	}
	if resp.StatusCode != http.StatusOK {
		re := &RemoteError{Addr: r.addr, Status: resp.StatusCode, Code: "internal"}
		var env wireEnvelope
		if jsonErr := json.Unmarshal(data, &env); jsonErr == nil && env.Error.Code != "" {
			re.Code, re.Message = env.Error.Code, env.Error.Message
		} else {
			re.Message = strings.TrimSpace(string(data))
		}
		return BatchResult{}, re
	}
	var wr WireResult
	if err := json.Unmarshal(data, &wr); err != nil {
		return BatchResult{}, fmt.Errorf("backend: decode %s response: %w", r.url, err)
	}
	return BatchResult{Metrics: wr.Metrics, ModelCalls: wr.ModelCalls}, nil
}

// Close makes further RunBatch calls fail and releases idle connections.
// The worker process is not owned by this client and keeps running.
func (r *Remote) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	r.hc.CloseIdleConnections()
	return nil
}
