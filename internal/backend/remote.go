package backend

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
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
// Retries: connect errors and 5xx responses (a draining or overloaded
// worker answers 503) are retried with equal-jitter doubling backoff up to
// MaxRetries; 4xx responses are deterministic rejections and never retried.
// A worker's Retry-After header (a draining 503 carries one) overrides the
// local backoff for that wait. When a shared RetryBudget is configured,
// every retry first withdraws a token; an empty budget fails the batch fast
// with ErrRetryBudgetExhausted instead of amplifying a fleet-wide outage.
// Accounting is conserved across retries by construction — only the single
// successful attempt's BatchResult is returned, and failed attempts
// contribute no metrics (the Retries counter is observability, not
// accounting).
type Remote struct {
	addr string
	url  string
	hc   *http.Client
	cfg  RemoteConfig

	batches      atomic.Int64
	retries      atomic.Int64
	errors       atomic.Int64
	budgetDenied atomic.Int64
	closed       atomic.Bool
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
	// MaxRetries bounds retry attempts after the first try on connect
	// errors and 5xx responses (default 2; negative disables retries).
	MaxRetries int
	// RetryBackoff is the first retry's base backoff, doubled per attempt
	// and equal-jittered (default 25ms).
	RetryBackoff time.Duration
	// Budget, when non-nil, is a retry budget shared across every Remote on
	// one router: each batch deposits, each retry withdraws, and an empty
	// budget fails the batch fast with ErrRetryBudgetExhausted.
	Budget *RetryBudget
}

func (c RemoteConfig) maxRetries() int {
	if c.MaxRetries < 0 {
		return 0
	}
	if c.MaxRetries == 0 {
		return 2
	}
	return c.MaxRetries
}

func (c RemoteConfig) retryBackoff() time.Duration {
	if c.RetryBackoff > 0 {
		return c.RetryBackoff
	}
	return 25 * time.Millisecond
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
	return &Remote{addr: cfg.Addr, url: base + "/v1/batch", hc: hc, cfg: cfg}, nil
}

// Addr reports the worker address this backend speaks to.
func (r *Remote) Addr() string { return r.addr }

// RemoteStats is the remote backend's dispatch accounting.
//
// Counting fields are conserved accounting: the llmqlint accounting
// analyzer rejects keyed literals that set some counters and omit others.
//
//llmqlint:accounting
type RemoteStats struct {
	// Batches counts batches served successfully; Retries the extra
	// attempts (beyond each batch's first) that connect errors or 5xx
	// responses cost; Errors the batches that failed after every retry;
	// BudgetDenied the batches failed fast because the shared retry budget
	// was empty (a subset of Errors).
	Batches      int64
	Retries      int64
	Errors       int64
	BudgetDenied int64
}

// Stats snapshots the dispatch counters.
func (r *Remote) Stats() RemoteStats {
	return RemoteStats{
		Batches:      r.batches.Load(),
		Retries:      r.retries.Load(),
		Errors:       r.errors.Load(),
		BudgetDenied: r.budgetDenied.Load(),
	}
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
	// RetryAfter is the worker's requested wait before the next attempt
	// (from the Retry-After header a draining 503 carries); zero means the
	// worker expressed no preference and the client's own backoff applies.
	RetryAfter time.Duration
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

// RunBatch ships the batch to the worker and returns its result. The
// statement's trace gets a "remote" child span carrying the worker address
// and the retry count the batch cost.
func (r *Remote) RunBatch(ctx context.Context, spec BatchSpec) (BatchResult, error) {
	if err := ctx.Err(); err != nil {
		return BatchResult{}, err
	}
	if r.closed.Load() {
		return BatchResult{}, fmt.Errorf("backend: remote backend is closed")
	}
	// One buffer per batch, shared read-only by its attempts and never
	// pooled: the transport may still be writing a failed attempt's copy of
	// it when the retry starts, and says nothing when it is done.
	body, err := EncodeWireBatch(spec, ClientInfoFrom(ctx)).AppendJSON(nil)
	if err != nil {
		return BatchResult{}, err
	}
	sp := obs.FromContext(ctx).Child("remote")
	sp.Set("worker", r.addr)
	sp.Set("requests", len(spec.Requests))
	defer sp.End()

	r.cfg.Budget.Deposit()
	var lastErr error
	backoff := r.cfg.retryBackoff()
	for attempt := 0; attempt <= r.cfg.maxRetries(); attempt++ {
		if attempt > 0 {
			if !r.cfg.Budget.Withdraw() {
				r.budgetDenied.Add(1)
				r.errors.Add(1)
				sp.Set("error", ErrRetryBudgetExhausted.Error())
				return BatchResult{}, fmt.Errorf("backend: remote %s: %w (last attempt: %w)",
					r.addr, ErrRetryBudgetExhausted, lastErr)
			}
			r.retries.Add(1)
			sp.Set("retries", attempt)
			// Equal jitter: [backoff/2, backoff) keeps the mean high enough
			// to matter while decorrelating a retry stampede.
			wait := backoff/2 + time.Duration(rand.Int64N(int64(backoff/2)+1))
			// A worker that said how long it needs (Retry-After on a
			// draining 503) knows better than our local schedule.
			var re *RemoteError
			if errors.As(lastErr, &re) && re.RetryAfter > 0 {
				wait = re.RetryAfter
			}
			select {
			case <-ctx.Done():
				return BatchResult{}, ctx.Err()
			case <-time.After(wait):
			}
			backoff *= 2
		}
		res, err := r.attempt(ctx, body)
		if err == nil {
			r.batches.Add(1)
			sp.Set("modelCalls", res.ModelCalls)
			return res, nil
		}
		// The caller's own death is never retried — surface ctx.Err() so the
		// seam's cancellation contract (return the context's error) holds.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return BatchResult{}, ctxErr
		}
		var re *RemoteError
		if errors.As(err, &re) && !re.Transient() {
			r.errors.Add(1)
			sp.Set("error", err.Error())
			return BatchResult{}, err
		}
		lastErr = err
	}
	r.errors.Add(1)
	sp.Set("error", lastErr.Error())
	return BatchResult{}, fmt.Errorf("backend: remote %s failed after %d attempts: %w",
		r.addr, r.cfg.maxRetries()+1, lastErr)
}

// attempt performs one POST /v1/batch round trip.
func (r *Remote) attempt(ctx context.Context, body []byte) (BatchResult, error) {
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
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			// Integer seconds per RFC 9110; fractional seconds are accepted
			// leniently so a fleet can ask for sub-second waits.
			if secs, err := strconv.ParseFloat(ra, 64); err == nil && secs > 0 {
				re.RetryAfter = time.Duration(secs * float64(time.Second))
			}
		}
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
