// Tests for backend.Remote against httptest-hosted in-process workers: the
// conformance harness entry (remote runs the full suite in backend_test.go),
// retry/accounting conservation, non-retryable rejections, mid-batch
// cancellation, and tenant attribution over the wire.
package backend_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/llmsim"
	"repro/internal/server"
)

// remoteHarness is a Remote plus the in-process worker it speaks to, closed
// together so the conformance suite can treat the pair as one Backend.
type remoteHarness struct {
	*backend.Remote
	srv   *httptest.Server
	inner backend.Backend
}

func (h *remoteHarness) Close() error {
	err := h.Remote.Close()
	h.srv.Close()
	if h.inner != nil {
		if ierr := h.inner.Close(); err == nil {
			err = ierr
		}
	}
	return err
}

// newRemoteConformance boots an in-process worker over a fresh sim backend
// and returns a Remote speaking to it — the conformance suite's "remote"
// entry.
func newRemoteConformance() backend.Backend {
	inner := backend.NewSim()
	wk := server.NewWorker(inner, nil)
	srv := httptest.NewServer(server.NewWithConfig(server.Config{Worker: wk}))
	rem, err := backend.NewRemote(backend.RemoteConfig{Addr: srv.URL, RetryBackoff: time.Millisecond})
	if err != nil {
		panic(err)
	}
	return &remoteHarness{Remote: rem, srv: srv, inner: inner}
}

// stubWorkerBackend is a deterministic local backend for wire-level tests:
// its result is a pure function of the requests, and it counts the requests
// that actually reached it (the conservation witness — a retried attempt
// that never got through must not be served twice; requests, not batches,
// because the worker shards a grouped batch before it gets here).
type stubWorkerBackend struct {
	mu       sync.Mutex
	requests int
}

func (s *stubWorkerBackend) RunBatch(ctx context.Context, spec backend.BatchSpec) (backend.BatchResult, error) {
	if err := ctx.Err(); err != nil {
		return backend.BatchResult{}, err
	}
	var prompt int64
	for _, r := range spec.Requests {
		prompt += int64(len(r.Prompt))
	}
	s.mu.Lock()
	s.requests += len(spec.Requests)
	s.mu.Unlock()
	m := llmsim.Metrics{}
	m.JCT = 1.5
	m.Steps = int64(len(spec.Requests))
	m.PromptTokens = prompt
	m.PrefilledTokens = prompt
	return backend.BatchResult{Metrics: m, ModelCalls: len(spec.Requests)}, nil
}

func (s *stubWorkerBackend) Close() error { return nil }

func (s *stubWorkerBackend) served() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.requests
}

// TestRemoteRetryConservation: a worker whose first answer is a transient
// 500 must cost exactly one retry — and the accounting must be conserved:
// the local backend serves every request once, and the returned result
// counts it once.
func TestRemoteRetryConservation(t *testing.T) {
	inner := &stubWorkerBackend{}
	wk := server.NewWorker(inner, nil)
	workerMux := server.NewWithConfig(server.Config{Worker: wk})
	var posts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/batch" && posts.Add(1) == 1 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusInternalServerError)
			_, _ = w.Write([]byte(`{"error":{"code":"internal","message":"transient fault"}}`))
			return
		}
		workerMux.ServeHTTP(w, r)
	}))
	defer srv.Close()

	rem, err := backend.NewRemote(backend.RemoteConfig{Addr: srv.URL, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()

	spec := accountingSpec([]int{3, 2}, 40, 8)
	res, err := rem.RunBatch(context.Background(), spec)
	if err != nil {
		t.Fatalf("RunBatch after transient 500: %v", err)
	}
	if res.ModelCalls != len(spec.Requests) {
		t.Errorf("model calls = %d, want %d", res.ModelCalls, len(spec.Requests))
	}
	if res.Metrics.PromptTokens != int64(5*40) {
		t.Errorf("prompt tokens = %d, want %d (one serve, conserved)", res.Metrics.PromptTokens, 5*40)
	}
	if got := posts.Load(); got != 2 {
		t.Errorf("worker saw %d POSTs, want 2 (one failure + one retry)", got)
	}
	if got := inner.served(); got != len(spec.Requests) {
		t.Errorf("local backend served %d requests, want exactly %d (each once)", got, len(spec.Requests))
	}
	st := rem.Stats()
	if st.Batches != 1 || st.Retries != 1 || st.Errors != 0 {
		t.Errorf("stats = %+v, want {Batches:1 Retries:1 Errors:0}", st)
	}
}

// TestRemoteDeterministicRejectionNotRetried: a 4xx envelope is final — no
// retries, and the error surfaces the worker's structured code.
func TestRemoteDeterministicRejectionNotRetried(t *testing.T) {
	var posts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		posts.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		_, _ = w.Write([]byte(`{"error":{"code":"invalid_request","message":"bad groups"}}`))
	}))
	defer srv.Close()
	rem, err := backend.NewRemote(backend.RemoteConfig{Addr: srv.URL, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()

	_, err = rem.RunBatch(context.Background(), accountingSpec([]int{2}, 10, 4))
	var re *backend.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *backend.RemoteError", err)
	}
	if re.Code != "invalid_request" || re.Status != http.StatusBadRequest || re.Transient() {
		t.Errorf("rejection = %+v, want final invalid_request/400", re)
	}
	if got := posts.Load(); got != 1 {
		t.Errorf("worker saw %d POSTs, want 1 (4xx is not retried)", got)
	}
	if st := rem.Stats(); st.Errors != 1 || st.Retries != 0 {
		t.Errorf("stats = %+v, want {Errors:1 Retries:0}", st)
	}
}

// blockingWorkerBackend parks every batch until its context dies — the
// worker-side half of the mid-batch cancellation test.
type blockingWorkerBackend struct {
	started chan struct{}
}

func (b *blockingWorkerBackend) RunBatch(ctx context.Context, spec backend.BatchSpec) (backend.BatchResult, error) {
	select {
	case b.started <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return backend.BatchResult{}, ctx.Err()
}

func (b *blockingWorkerBackend) Close() error { return nil }

// TestRemoteCancellationMidBatch: canceling the caller's context while the
// worker is mid-batch must abort the HTTP request and return the context's
// error promptly — not park until some transport timeout.
func TestRemoteCancellationMidBatch(t *testing.T) {
	inner := &blockingWorkerBackend{started: make(chan struct{}, 1)}
	wk := server.NewWorker(inner, nil)
	srv := httptest.NewServer(server.NewWithConfig(server.Config{Worker: wk}))
	defer srv.Close()
	rem, err := backend.NewRemote(backend.RemoteConfig{Addr: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-inner.started
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := rem.RunBatch(ctx, accountingSpec([]int{2}, 10, 4))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunBatch did not return after cancellation")
	}
}

// TestRemoteClientAttribution: tenant identity attached via
// backend.WithClientInfo rides the wire envelope and lands in the worker's
// per-client accounting — PR 7's identity, now fleet-wide.
func TestRemoteClientAttribution(t *testing.T) {
	inner := &stubWorkerBackend{}
	wk := server.NewWorker(inner, nil)
	srv := httptest.NewServer(server.NewWithConfig(server.Config{Worker: wk}))
	defer srv.Close()
	rem, err := backend.NewRemote(backend.RemoteConfig{Addr: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()

	ctx := backend.WithClientInfo(context.Background(), backend.ClientInfo{Client: "dashboard-7", Class: "batch"})
	if _, err := rem.RunBatch(ctx, accountingSpec([]int{2}, 10, 4)); err != nil {
		t.Fatal(err)
	}
	// Anonymous traffic accounts under "anon".
	if _, err := rem.RunBatch(context.Background(), accountingSpec([]int{1}, 10, 4)); err != nil {
		t.Fatal(err)
	}
	st := wk.Stats()
	if st.Batches != 2 || st.Rows != 3 {
		t.Fatalf("worker stats = %+v, want 2 batches over 3 rows", st)
	}
	if c := st.Clients["dashboard-7"]; c.Batches != 1 || c.Rows != 2 {
		t.Errorf("dashboard-7 share = %+v, want {Batches:1 Rows:2}", c)
	}
	if c := st.Clients["anon"]; c.Batches != 1 || c.Rows != 1 {
		t.Errorf("anon share = %+v, want {Batches:1 Rows:1}", c)
	}
}

// TestRemoteDrainingWorkerRefuses: a draining worker answers 503, which the
// remote treats as transient — retried, then surfaced as an error (the
// cluster router's cue to fail over to the next ring node).
func TestRemoteDrainingWorkerRefuses(t *testing.T) {
	inner := &stubWorkerBackend{}
	wk := server.NewWorker(inner, nil)
	wk.SetDraining(true)
	srv := httptest.NewServer(server.NewWithConfig(server.Config{Worker: wk}))
	defer srv.Close()
	rem, err := backend.NewRemote(backend.RemoteConfig{Addr: srv.URL, MaxRetries: 1, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()

	_, err = rem.RunBatch(context.Background(), accountingSpec([]int{1}, 10, 4))
	var re *backend.RemoteError
	if !errors.As(err, &re) || !re.Transient() {
		t.Fatalf("err = %v, want transient RemoteError (503)", err)
	}
	if got := inner.served(); got != 0 {
		t.Errorf("draining worker served %d requests, want 0", got)
	}
	if st := rem.Stats(); st.Retries != 1 || st.Errors != 1 {
		t.Errorf("stats = %+v, want {Retries:1 Errors:1}", st)
	}
}
