// Tests for backend.Remote's failure edges: one POST per batch, and
// X-Llmq-Deadline-Ms edge cases.
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

// flakyWorker answers statuses[i] for request i (the real worker path is
// not needed here; it answers a bare status), counting hits.
type flakyWorker struct {
	statuses []int // per-request status; requests beyond the list get 200
	hits     atomic.Int64
}

func (f *flakyWorker) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := int(f.hits.Add(1)) - 1
		status := http.StatusOK
		if n < len(f.statuses) {
			status = f.statuses[n]
		}
		if status != http.StatusOK {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			_, _ = w.Write([]byte(`{"error":{"code":"unavailable","message":"flaky"}}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"metrics":{},"modelCalls":1}`))
	})
}

// TestRemoteOnePostPerBatch: a transient 5xx is surfaced after one POST —
// the remote never retries; the cluster router's walk does.
func TestRemoteOnePostPerBatch(t *testing.T) {
	fw := &flakyWorker{statuses: []int{503}}
	srv := httptest.NewServer(fw.handler())
	defer srv.Close()
	rem, err := backend.NewRemote(backend.RemoteConfig{Addr: srv.URL})
	if err != nil {
		t.Fatal(err)
	}
	defer rem.Close()

	_, err = rem.RunBatch(context.Background(), accountingSpec([]int{1}, 10, 4))
	var re *backend.RemoteError
	if !errors.As(err, &re) || !re.Transient() {
		t.Fatalf("err = %v, want transient RemoteError (503)", err)
	}
	if got := fw.hits.Load(); got != 1 {
		t.Errorf("worker saw %d requests, want 1", got)
	}
	if st := rem.Stats(); st.Batches != 0 || st.Errors != 1 {
		t.Errorf("stats = %+v, want {Batches:0 Errors:1}", st)
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
