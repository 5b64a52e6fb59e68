package backend

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/llmsim"
	"repro/internal/obs"
)

// DefaultEngineBudget bounds how many long-lived engine replicas a
// Persistent backend retains, across all stages, before evicting the least
// recently used stage's idle replicas.
const DefaultEngineBudget = 16

// DefaultStageReplicas bounds how many replicas one stage's pool may grow
// to. More replicas let concurrent batch windows on a hot stage overlap;
// each replica warms its own KV cache, so the pool only grows under actual
// contention (a sequential workload stays on one cache-hot replica).
const DefaultStageReplicas = 4

// Persistent serves each stage fingerprint on a pool of long-lived engine
// replicas whose KV caches survive between batches: the second batch window
// of a dashboard refresh finds the first window's prompt prefixes already
// cached, so prefix hits span batch windows — and statements — instead of
// stopping at the edge of one engine run.
//
// Concurrency: kvcache.Cache is single-threaded, so a replica serves one
// batch at a time — but the pool holds up to DefaultStageReplicas replicas
// per stage, so concurrent batch windows on the SAME hot stage overlap on
// separate replicas instead of serializing behind one mutex (the caveat the
// pre-pool design carried). RunBatch acquires the most recently released
// idle replica (cache-hot first), grows the pool when none is idle, and
// waits for a release once the pool is at its per-stage cap. A sequential
// workload therefore keeps the old single-engine behavior — one replica,
// one ever-warmer cache — while a Sharded decorator or concurrent runtime
// workers fan batches across the pool.
//
// Memory: the LRU budget counts replicas. Creating a replica past the
// budget first evicts idle replicas from the least recently used stages
// (never a replica mid-run, never the acquiring stage's own); a stage's
// first replica is always created so every batch can make progress, even if
// the fleet is transiently one replica over budget under extreme
// contention. Eviction only drops pool references: a batch mid-run on an
// evicted replica completes on its own reference and the engine is garbage
// once it finishes.
type Persistent struct {
	mu       sync.Mutex
	closed   bool                  // guarded by mu
	budget   int                   // max live replicas across all stages
	perStage int                   // max replicas per stage pool
	replicas int                   // guarded by mu; live replicas across all pools
	pools    map[string]*stagePool // guarded by mu
	lru      *list.List            // guarded by mu; of *stagePool; front = least recently used
}

// stagePool is one stage fingerprint's replica pool. All fields are guarded
// by the owning Persistent's mutex — pool operations are rare and cheap next
// to engine runs, so one lock keeps the acquire/release/evict interplay
// simple and obviously race-free.
type stagePool struct {
	key  string
	elem *list.Element
	idle []*llmsim.Engine // LIFO: top is the most recently released (cache-hot)
	busy int              // replicas currently serving a batch
	// waiters queue acquirers blocked at the per-stage cap; a release hands
	// its replica to the oldest waiter directly (channels are 1-buffered).
	waiters []chan *llmsim.Engine
}

var _ Backend = (*Persistent)(nil)

// NewPersistent returns a persistent backend retaining up to engineBudget
// live replicas (<= 0 uses DefaultEngineBudget) with DefaultStageReplicas
// replicas per stage.
func NewPersistent(engineBudget int) *Persistent {
	return NewPersistentReplicas(engineBudget, 0)
}

// NewPersistentReplicas is NewPersistent with an explicit per-stage replica
// cap (<= 0 uses DefaultStageReplicas, 1 restores strict per-stage
// serialization).
func NewPersistentReplicas(engineBudget, stageReplicas int) *Persistent {
	if engineBudget <= 0 {
		engineBudget = DefaultEngineBudget
	}
	if stageReplicas <= 0 {
		stageReplicas = DefaultStageReplicas
	}
	return &Persistent{
		budget:   engineBudget,
		perStage: stageReplicas,
		pools:    make(map[string]*stagePool),
		lru:      list.New(),
	}
}

// RunBatch serves the batch on one of the stage's replicas: the most
// recently idle one when available, a fresh one while the pool is below its
// cap, otherwise the next replica released by a concurrent batch. ctx is
// honored both while waiting for a replica and between engine steps.
func (p *Persistent) RunBatch(ctx context.Context, spec BatchSpec) (BatchResult, error) {
	if err := ctx.Err(); err != nil {
		return BatchResult{}, err
	}
	acquireStart := time.Now()
	eng, pool, err := p.acquire(ctx, spec)
	if err != nil {
		return BatchResult{}, err
	}
	if sp := obs.FromContext(ctx); sp != nil {
		sp.Set("backend", "persistent")
		sp.Set("replicaWaitMs", float64(time.Since(acquireStart))/float64(time.Millisecond))
	}
	metrics, err := eng.RunInterruptible(spec.Requests, interruptFor(ctx))
	p.release(pool, eng)
	if err != nil {
		return BatchResult{}, err
	}
	return BatchResult{Metrics: metrics, ModelCalls: len(spec.Requests)}, nil
}

// Engines reports the number of live replicas.
//
//llmqlint:api llmq.PersistentBackend; the runtime tests count replicas
func (p *Persistent) Engines() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.replicas
}

// Close drops every pool and fails pending waiters. Batches running at
// Close time finish on their (now unreferenced) replicas; subsequent
// RunBatch calls fail.
func (p *Persistent) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for _, pool := range p.pools {
		for _, ch := range pool.waiters {
			close(ch) // waiter receives nil and reports the backend closed
		}
		pool.waiters = nil
	}
	p.pools = nil
	p.lru = nil
	p.replicas = 0
	return nil
}

// acquire resolves one replica of the stage's pool, creating the pool and
// growing it under the budget as needed, or parking the caller until a
// concurrent batch releases one.
func (p *Persistent) acquire(ctx context.Context, spec BatchSpec) (*llmsim.Engine, *stagePool, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, nil, fmt.Errorf("backend: persistent backend is closed")
	}
	pool, ok := p.pools[spec.StageKey]
	if !ok {
		pool = &stagePool{key: spec.StageKey}
		pool.elem = p.lru.PushBack(pool)
		p.pools[spec.StageKey] = pool
	} else {
		p.lru.MoveToBack(pool.elem) // O(1) touch: most recently used
	}

	// Cache-hot first: the most recently released replica holds the warmest
	// KV cache, so sequential workloads keep hitting one replica.
	if n := len(pool.idle); n > 0 {
		eng := pool.idle[n-1]
		pool.idle[n-1] = nil // drop the array's reference: evicted engines must be collectable
		pool.idle = pool.idle[:n-1]
		pool.busy++
		p.mu.Unlock()
		return eng, pool, nil
	}

	if pool.busy < p.perStage {
		p.evictForBudget(pool)
		if p.replicas < p.budget || pool.busy == 0 {
			// Grow the pool. The busy == 0 clause guarantees progress: a
			// stage's first replica is created even when every budgeted
			// replica is mid-run elsewhere (transient overage, shed as soon
			// as any stage goes idle).
			p.replicas++
			pool.busy++
			p.mu.Unlock()
			return llmsim.New(spec.Engine), pool, nil
		}
	}

	// Pool at its cap (or budget exhausted with running replicas to wait
	// for): park until a release hands us a replica.
	ch := make(chan *llmsim.Engine, 1)
	pool.waiters = append(pool.waiters, ch)
	p.mu.Unlock()

	select {
	case eng, ok := <-ch:
		if !ok || eng == nil {
			return nil, nil, fmt.Errorf("backend: persistent backend closed while waiting for a replica")
		}
		return eng, pool, nil
	case <-ctx.Done():
		p.mu.Lock()
		for i, w := range pool.waiters {
			if w == ch {
				pool.waiters = append(pool.waiters[:i], pool.waiters[i+1:]...)
				p.mu.Unlock()
				return nil, nil, ctx.Err()
			}
		}
		p.mu.Unlock()
		// Already removed from the queue: a release raced our cancellation
		// and handed us a replica (the send happens under the lock, so it is
		// in the buffer by now) — or Close closed the channel. Hand a handed
		// replica straight back; the busy slot it carries transfers with it.
		if eng, ok := <-ch; ok && eng != nil {
			p.release(pool, eng)
		}
		return nil, nil, ctx.Err()
	}
}

// release returns a replica to its pool: straight to the oldest waiter when
// one is parked, otherwise onto the idle stack.
func (p *Persistent) release(pool *stagePool, eng *llmsim.Engine) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		// Pools are gone; drop the replica.
		return
	}
	if len(pool.waiters) > 0 {
		ch := pool.waiters[0]
		pool.waiters = pool.waiters[1:]
		ch <- eng // 1-buffered: never blocks; busy count carries over
		return
	}
	pool.busy--
	pool.idle = append(pool.idle, eng)
}

// evictForBudget frees budget for one new replica in pool by dropping idle
// replicas of the least recently used stages (never pool's own — its idle
// stack is empty when this runs — and never a replica mid-run). Pools left
// empty with no waiters are removed entirely. Called with p.mu held.
//
//llmqlint:holds mu
func (p *Persistent) evictForBudget(pool *stagePool) {
	for p.replicas >= p.budget {
		evicted := false
		for e := p.lru.Front(); e != nil; {
			next := e.Next()
			victim := e.Value.(*stagePool)
			if victim != pool && len(victim.idle) > 0 {
				// Drop the coldest replica: the bottom of the idle stack.
				// Shift in place rather than re-slice so the backing array
				// keeps no reference to the evicted engine (the leak the old
				// single-engine LRU's order[1:] had).
				copy(victim.idle, victim.idle[1:])
				victim.idle[len(victim.idle)-1] = nil
				victim.idle = victim.idle[:len(victim.idle)-1]
				p.replicas--
				if len(victim.idle) == 0 && victim.busy == 0 && len(victim.waiters) == 0 {
					p.lru.Remove(victim.elem)
					delete(p.pools, victim.key)
				}
				evicted = true
				break
			}
			e = next
		}
		if !evicted {
			return // everything else is mid-run; caller decides on overage
		}
	}
}
