// Tests for backend.Remote's hardening knobs: the shared retry budget,
// Retry-After honoring, and X-Llmq-Deadline-Ms edge cases.
package backend_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend"
)

// flakyWorker answers failures[i] for request i (0 = 200 via the real
// worker path is not needed here; it answers a bare status), counting hits.
type flakyWorker struct {
	statuses   []int // per-request status; requests beyond the list get 200
	retryAfter string
	hits       atomic.Int64
}

func (f *flakyWorker) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := int(f.hits.Add(1)) - 1
		status := http.StatusOK
		if n < len(f.statuses) {
			status = f.statuses[n]
		}
		if status != http.StatusOK {
			if f.retryAfter != "" {
				w.Header().Set("Retry-After", f.retryAfter)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			_, _ = w.Write([]byte(`{"error":{"code":"unavailable","message":"flaky"}}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"metrics":{},"modelCalls":1}`))
	})
}

// TestRemoteRetryBudgetExhausted: with the shared budget empty, a retryable
// failure fails fast with the distinct budget error instead of retrying,
// and the denial is visible in RemoteStats.
func TestRemoteRetryBudgetExhausted(t *testing.T) {
	fw := &flakyWorker{statuses: []int{503, 503, 503, 503, 503, 503}}
	srv := httptest.NewServer(fw.handler())
	defer srv.Close()

	budget := backend.NewRetryBudget(0.001, 1) // one token, near-zero refill
	rem, err := backend.NewRemote(backend.RemoteConfig{
		Addr:         srv.URL,
		MaxRetries:   5,
		RetryBackoff: time.Millisecond,
		Budget:       budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()

	_, err = rem.RunBatch(context.Background(), accountingSpec([]int{1}, 10, 4))
	if !errors.Is(err, backend.ErrRetryBudgetExhausted) {
		t.Fatalf("err = %v, want ErrRetryBudgetExhausted", err)
	}
	// One token bought one retry; the second withdrawal was denied. The
	// worker therefore saw exactly 2 requests, not 6.
	if got := fw.hits.Load(); got != 2 {
		t.Errorf("worker saw %d requests, want 2 (first attempt + one budgeted retry)", got)
	}
	st := rem.Stats()
	if st.BudgetDenied != 1 || st.Errors != 1 {
		t.Errorf("stats = %+v, want BudgetDenied 1, Errors 1", st)
	}
	if budget.Denied() != 1 {
		t.Errorf("budget denied = %d, want 1", budget.Denied())
	}
}

// TestRemoteHonorsRetryAfter: a worker's Retry-After wins over the client's
// own (much shorter) backoff — the wait between attempts is the server's.
func TestRemoteHonorsRetryAfter(t *testing.T) {
	fw := &flakyWorker{statuses: []int{503, 503}, retryAfter: "0.1"}
	srv := httptest.NewServer(fw.handler())
	defer srv.Close()

	rem, err := backend.NewRemote(backend.RemoteConfig{
		Addr:         srv.URL,
		MaxRetries:   2,
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()

	start := time.Now()
	if _, err := rem.RunBatch(context.Background(), accountingSpec([]int{1}, 10, 4)); err != nil {
		t.Fatal(err)
	}
	// Two 503s each asked for 100ms; the local 1ms backoff alone would
	// finish in single-digit milliseconds.
	if el := time.Since(start); el < 180*time.Millisecond {
		t.Errorf("retries took %v, want >= 180ms (two 100ms Retry-After waits honored)", el)
	}
	if got := fw.hits.Load(); got != 3 {
		t.Errorf("worker saw %d requests, want 3", got)
	}
}

// TestRemoteExpiredDeadline: a statement whose deadline already passed
// never reaches the wire.
func TestRemoteExpiredDeadline(t *testing.T) {
	fw := &flakyWorker{}
	srv := httptest.NewServer(fw.handler())
	defer srv.Close()

	rem, err := backend.NewRemote(backend.RemoteConfig{Addr: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err = rem.RunBatch(ctx, accountingSpec([]int{1}, 10, 4))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if got := fw.hits.Load(); got != 0 {
		t.Errorf("worker saw %d requests, want 0 (expired deadline never dispatches)", got)
	}
}

// TestRemoteDeadlineShorterThanBackoff: when the remaining deadline is
// smaller than the next retry's wait, the retry sleep is cut short by the
// context — the remote must not retry past the deadline.
func TestRemoteDeadlineShorterThanBackoff(t *testing.T) {
	fw := &flakyWorker{statuses: []int{503, 503, 503, 503}}
	srv := httptest.NewServer(fw.handler())
	defer srv.Close()

	rem, err := backend.NewRemote(backend.RemoteConfig{
		Addr:         srv.URL,
		MaxRetries:   3,
		RetryBackoff: time.Second, // jittered to >= 500ms: far beyond the deadline
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = rem.RunBatch(ctx, accountingSpec([]int{1}, 10, 4))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Errorf("deadline-bounded run took %v: the retry slept past the deadline", el)
	}
	if got := fw.hits.Load(); got != 1 {
		t.Errorf("worker saw %d requests, want 1 (no retry fits inside the deadline)", got)
	}
}

// TestRetryBudgetRefills: first attempts deposit; enough successful traffic
// re-arms a drained budget.
func TestRetryBudgetRefills(t *testing.T) {
	b := backend.NewRetryBudget(0.5, 2)
	if !b.Withdraw() || !b.Withdraw() {
		t.Fatal("a full budget denied a withdrawal")
	}
	if b.Withdraw() {
		t.Fatal("an empty budget allowed a withdrawal")
	}
	b.Deposit()
	b.Deposit() // 2 deposits x 0.5 = 1 token
	if !b.Withdraw() {
		t.Fatal("refilled budget denied a withdrawal")
	}
	if b.Denied() != 1 {
		t.Fatalf("denied = %d, want 1", b.Denied())
	}
}
