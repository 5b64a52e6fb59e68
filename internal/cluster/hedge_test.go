// Hedged-dispatch tests: tail-latency hedging races a slow primary against
// the next ring node, the first answer wins, and — the accounting bar —
// hedges never double-charge.
package cluster_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/cluster"
)

// laggardBackend serves every batch instantly except the first, which
// blocks until its context dies (a stuck worker, not a failed one). All
// workers in the hedge tests share one instance, so its ledger counts what
// the whole fleet actually served.
type laggardBackend struct {
	mu         sync.Mutex
	calls      int
	servedReqs int   // requests on batches that returned a result
	stuck      int32 // 1 while the laggard batch is blocked
}

func (l *laggardBackend) RunBatch(ctx context.Context, spec backend.BatchSpec) (backend.BatchResult, error) {
	l.mu.Lock()
	l.calls++
	first := l.calls == 1
	l.mu.Unlock()
	if first {
		atomic.StoreInt32(&l.stuck, 1)
		<-ctx.Done()
		return backend.BatchResult{}, ctx.Err()
	}
	l.mu.Lock()
	l.servedReqs += len(spec.Requests)
	l.mu.Unlock()
	return backend.BatchResult{ModelCalls: len(spec.Requests)}, nil
}

func (l *laggardBackend) Close() error { return nil }

// TestHedgeNoDoubleCharge: the primary hangs, the hedge answers, and the
// batch's merged accounting counts each request exactly once — the loser's
// canceled attempt contributes nothing.
func TestHedgeNoDoubleCharge(t *testing.T) {
	shared := &laggardBackend{}
	srvA, _ := startWorker(shared)
	srvB, _ := startWorker(shared)
	defer srvA.Close()
	defer srvB.Close()

	rt, err := cluster.NewRouter(cluster.Config{Workers: []string{srvA.URL, srvB.URL}}.With(cluster.Timings{
		HealthInterval: -1,
		HedgeAfter:     20 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	res, err := rt.RunBatch(context.Background(), clusterSpec("hedged-stage", []int{3}, 16, 4))
	if err != nil {
		t.Fatalf("hedged batch: %v", err)
	}
	if res.ModelCalls != 3 {
		t.Errorf("merged model calls = %d, want 3 (hedge must not double-charge)", res.ModelCalls)
	}

	m := rt.Metrics()
	if m.HedgesLaunched != 1 {
		t.Errorf("hedges launched = %d, want 1", m.HedgesLaunched)
	}
	if m.HedgeWins != 1 {
		t.Errorf("hedge wins = %d, want 1 (the stuck primary cannot have answered)", m.HedgeWins)
	}

	shared.mu.Lock()
	served := shared.servedReqs
	shared.mu.Unlock()
	if served != 3 {
		t.Errorf("fleet served %d requests to completion, want 3 (single execution)", served)
	}
	// Conservation across the fleet ledger: router batches = hedge winner
	// only; the canceled primary is an error, not a serve.
	var batches, errs int64
	for _, wm := range m.Workers {
		batches += wm.Batches
		errs += wm.Errors
	}
	if batches != 1 {
		t.Errorf("worker batches = %d, want 1 (only the winner's attempt counts)", batches)
	}
	t.Logf("fleet: batches=%d errors=%d hedges=%d wins=%d", batches, errs, m.HedgesLaunched, m.HedgeWins)
}

// TestHedgePrimaryWinCancelsHedge: the mirror race — the primary answers
// right after the hedge launches, the hedge is canceled, accounting still
// single-counts.
func TestHedgePrimaryWinCancelsHedge(t *testing.T) {
	slow := &slowBackend{delay: 60 * time.Millisecond}
	srvA, _ := startWorker(slow)
	srvB, _ := startWorker(slow)
	defer srvA.Close()
	defer srvB.Close()

	rt, err := cluster.NewRouter(cluster.Config{Workers: []string{srvA.URL, srvB.URL}}.With(cluster.Timings{
		HealthInterval: -1,
		HedgeAfter:     15 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	res, err := rt.RunBatch(context.Background(), clusterSpec("slow-stage", []int{2}, 16, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.ModelCalls != 2 {
		t.Errorf("model calls = %d, want 2", res.ModelCalls)
	}
	m := rt.Metrics()
	if m.HedgesLaunched != 1 {
		t.Errorf("hedges launched = %d, want 1", m.HedgesLaunched)
	}
	if m.HedgeWins+m.HedgesCanceled != 1 {
		t.Errorf("wins %d + canceled %d != 1: every decided race resolves exactly once",
			m.HedgeWins, m.HedgesCanceled)
	}
}

// slowBackend delays every batch by a fixed amount, honoring cancellation.
type slowBackend struct{ delay time.Duration }

func (s *slowBackend) RunBatch(ctx context.Context, spec backend.BatchSpec) (backend.BatchResult, error) {
	select {
	case <-ctx.Done():
		return backend.BatchResult{}, ctx.Err()
	case <-time.After(s.delay):
	}
	return backend.BatchResult{ModelCalls: len(spec.Requests)}, nil
}

func (s *slowBackend) Close() error { return nil }

// TestHedgeRespectsDeadline: with the caller's remaining deadline shorter
// than the hedge delay, no hedge launches — the batch dies on its deadline
// without spawning doomed work.
func TestHedgeRespectsDeadline(t *testing.T) {
	slow := &slowBackend{delay: 10 * time.Second}
	srvA, _ := startWorker(slow)
	srvB, _ := startWorker(slow)
	defer srvA.Close()
	defer srvB.Close()

	rt, err := cluster.NewRouter(cluster.Config{Workers: []string{srvA.URL, srvB.URL}}.With(cluster.Timings{
		HealthInterval: -1,
		HedgeAfter:     500 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	_, err = rt.RunBatch(ctx, clusterSpec("deadlined-stage", []int{2}, 16, 4))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if m := rt.Metrics(); m.HedgesLaunched != 0 {
		t.Errorf("hedges launched = %d, want 0 (deadline < hedge delay suppresses the hedge)", m.HedgesLaunched)
	}
}

// TestHedgeDisabled: a negative HedgeAfter turns hedging off entirely.
func TestHedgeDisabled(t *testing.T) {
	slow := &slowBackend{delay: 40 * time.Millisecond}
	srvA, _ := startWorker(slow)
	srvB, _ := startWorker(slow)
	defer srvA.Close()
	defer srvB.Close()

	rt, err := cluster.NewRouter(cluster.Config{Workers: []string{srvA.URL, srvB.URL}}.With(cluster.Timings{
		HealthInterval: -1,
		HedgeAfter:     -1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	if _, err := rt.RunBatch(context.Background(), clusterSpec("s", []int{2}, 16, 4)); err != nil {
		t.Fatal(err)
	}
	if m := rt.Metrics(); m.HedgesLaunched != 0 {
		t.Errorf("hedges launched = %d, want 0 (hedging disabled)", m.HedgesLaunched)
	}
}
