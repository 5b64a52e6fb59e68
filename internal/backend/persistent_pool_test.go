// White-box tests of the Persistent replica pool: acquire/release/evict
// semantics that black-box statement runs cannot pin deterministically.
package backend

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/llmsim"
)

func poolSpec(key string) BatchSpec {
	return BatchSpec{StageKey: key, Engine: llmsim.Config{CacheEnabled: true}}
}

// TestPoolGrowsUnderContention pins the tentpole's point: a second batch on
// the same hot stage no longer serializes behind a mutex — it gets its own
// replica while the first is mid-run.
func TestPoolGrowsUnderContention(t *testing.T) {
	p := NewPersistent(0)
	defer p.Close()
	ctx := context.Background()

	e1, pool, err := p.acquire(ctx, poolSpec("hot"))
	if err != nil {
		t.Fatal(err)
	}
	e2, _, err := p.acquire(ctx, poolSpec("hot"))
	if err != nil {
		t.Fatal(err)
	}
	if e1 == e2 {
		t.Fatal("two concurrent acquires returned the same replica")
	}
	if got := p.Engines(); got != 2 {
		t.Fatalf("live replicas = %d, want 2", got)
	}
	if got := p.StageReplicas("hot"); got != 2 {
		t.Fatalf("stage replicas = %d, want 2", got)
	}

	// Sequential reuse stays cache-hot: release both, the next acquire must
	// get the most recently released replica, and the pool must not grow.
	p.release(pool, e1)
	p.release(pool, e2)
	e3, _, err := p.acquire(ctx, poolSpec("hot"))
	if err != nil {
		t.Fatal(err)
	}
	if e3 != e2 {
		t.Fatal("acquire skipped the most recently released (cache-hot) replica")
	}
	if got := p.Engines(); got != 2 {
		t.Fatalf("sequential reuse grew the pool: %d replicas", got)
	}
}

// TestPoolWaitsAtStageCap pins the per-stage cap: past it, an acquire parks
// until a release hands over a replica, and the handoff preserves identity.
func TestPoolWaitsAtStageCap(t *testing.T) {
	p := NewPersistentReplicas(0, 2)
	defer p.Close()
	ctx := context.Background()

	e1, pool, err := p.acquire(ctx, poolSpec("hot"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.acquire(ctx, poolSpec("hot")); err != nil {
		t.Fatal(err)
	}

	got := make(chan *llmsim.Engine, 1)
	go func() {
		eng, _, err := p.acquire(ctx, poolSpec("hot"))
		if err != nil {
			t.Error(err)
		}
		got <- eng
	}()
	select {
	case <-got:
		t.Fatal("third acquire did not wait at the per-stage cap")
	case <-time.After(20 * time.Millisecond):
	}
	p.release(pool, e1)
	select {
	case eng := <-got:
		if eng != e1 {
			t.Fatal("waiter received a different replica than the released one")
		}
	case <-time.After(time.Second):
		t.Fatal("waiter never woke after release")
	}
	if got := p.Engines(); got != 2 {
		t.Fatalf("cap breached: %d replicas, want 2", got)
	}
}

// TestPoolWaiterHonorsContext pins cancellation while parked: the waiter
// returns ctx.Err() and a later release still finds a consistent pool.
func TestPoolWaiterHonorsContext(t *testing.T) {
	p := NewPersistentReplicas(0, 1)
	defer p.Close()

	e1, pool, err := p.acquire(context.Background(), poolSpec("hot"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, err := p.acquire(ctx, poolSpec("hot"))
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("parked acquire returned %v, want context.Canceled", err)
	}
	p.release(pool, e1)
	// The canceled waiter must not have consumed the replica.
	if _, _, err := p.acquire(context.Background(), poolSpec("hot")); err != nil {
		t.Fatalf("pool wedged after canceled waiter: %v", err)
	}
}

// TestPoolBudgetEvictsIdleReplicas pins the replica-counting LRU: distinct
// stages past the budget evict the least recently used stage's idle
// replicas, never exceeding the budget while everything is idle.
func TestPoolBudgetEvictsIdleReplicas(t *testing.T) {
	p := NewPersistentReplicas(2, 2)
	defer p.Close()
	ctx := context.Background()

	for i, key := range []string{"a", "b", "c", "d"} {
		eng, pool, err := p.acquire(ctx, poolSpec(key))
		if err != nil {
			t.Fatal(err)
		}
		p.release(pool, eng)
		if got := p.Engines(); got > 2 {
			t.Fatalf("after stage %d: %d replicas, budget 2", i+1, got)
		}
	}
	if got := p.Engines(); got != 2 {
		t.Fatalf("live replicas = %d, want 2 (budget reached)", got)
	}
	if got := p.StageReplicas("a"); got != 0 {
		t.Fatalf("LRU stage a still holds %d replicas", got)
	}
	if got := p.StageReplicas("d"); got != 1 {
		t.Fatalf("MRU stage d holds %d replicas, want 1", got)
	}
}

// TestPoolFirstReplicaAlwaysCreated pins the progress guarantee: a new
// stage gets its first replica even when the whole budget is mid-run
// elsewhere (transient overage instead of deadlock).
func TestPoolFirstReplicaAlwaysCreated(t *testing.T) {
	p := NewPersistentReplicas(1, 2)
	defer p.Close()
	ctx := context.Background()

	e1, poolA, err := p.acquire(ctx, poolSpec("a")) // consumes the whole budget, stays busy
	if err != nil {
		t.Fatal(err)
	}
	e2, poolB, err := p.acquire(ctx, poolSpec("b"))
	if err != nil {
		t.Fatalf("new stage starved by a busy budget: %v", err)
	}
	if got := p.Engines(); got != 2 {
		t.Fatalf("live replicas = %d, want 2 (transient overage)", got)
	}
	p.release(poolA, e1)
	p.release(poolB, e2)
	// The overage is shed on the next budget check: a third stage's acquire
	// evicts both idle LRU replicas down to the budget.
	e3, poolC, err := p.acquire(ctx, poolSpec("c"))
	if err != nil {
		t.Fatal(err)
	}
	p.release(poolC, e3)
	if got := p.Engines(); got != 1 {
		t.Fatalf("live replicas = %d, want 1 (budget restored)", got)
	}
}

// TestPoolCloseFailsWaiters pins shutdown: Close wakes parked acquirers
// with an error instead of leaving them hanging.
func TestPoolCloseFailsWaiters(t *testing.T) {
	p := NewPersistentReplicas(0, 1)
	if _, _, err := p.acquire(context.Background(), poolSpec("hot")); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, _, err := p.acquire(context.Background(), poolSpec("hot"))
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	p.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("waiter succeeded on a closed backend")
		}
	case <-time.After(time.Second):
		t.Fatal("waiter hung through Close")
	}
}

// StageReplicas reports the live replica count of one stage's pool.
func (p *Persistent) StageReplicas(stageKey string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pool, ok := p.pools[stageKey]; ok {
		return len(pool.idle) + pool.busy
	}
	return 0
}
