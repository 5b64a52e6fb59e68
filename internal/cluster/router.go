package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Router is the cluster Backend: it consistent-hashes each batch's StageKey
// onto the worker ring so persistent engines stay stage-affine fleet-wide,
// sends each batch whole to the worker that owns its stage, and degrades —
// not fails — when workers die, drain, or lie.
//
// Placement per batch:
//
//  1. The ring names the stage's owner; an owner whose circuit breaker is
//     open fails over to the next distinct ring node (counted as a ring
//     move), so a broken worker's stages land deterministically on its
//     successor.
//  2. If the primary is saturated (whole batches in flight ≥ its capacity)
//     the next ring node joins as a replica target (counted as a hot
//     replication): the stage's prefix warms on a second node, trading one
//     extra warm-up for parallelism.
//  3. One part per target: a lone primary gets the batch whole; a replica
//     pair gets the two halves backend.SplitByGroups cuts along the
//     prefix-group boundaries, part i to target i, and a batch that cannot
//     be cut overflows whole to the replica. Parts keep their group starts,
//     and the worker that serves one shards it across its own engine
//     replicas (server.NewWorker): the process that owns the pool decides
//     the fan-out width, once.
//  4. A part without an answer after the hedge delay is also dispatched to
//     the next admitted ring node; the first answer wins and the loser is
//     canceled — only the winner's result merges, so hedges never
//     double-charge.
//  5. A part whose worker fails (after backend.Remote's own retries) feeds
//     that worker's circuit breaker and retries on the next ring node;
//     deterministic 4xx rejections and the caller's own cancellation do
//     not fail over.
//
// The fleet is live: AddWorker/RemoveWorker rebalance the consistent-hash
// ring on a running router (~1/N of stages move), in-flight batches drain
// on their old assignment, and removed workers stop counting toward ring
// moves the moment they leave.
//
// Results merge with backend.MergeBatchResults, so accounting is conserved:
// each part's tokens and calls count exactly once however many workers were
// tried.
type Router struct {
	cfg    Config
	hc     *http.Client
	budget *backend.RetryBudget

	mu      sync.RWMutex
	ring    *ring              // guarded by mu
	workers map[string]*worker // guarded by mu

	ringMoves       atomic.Int64
	hotReplications atomic.Int64
	hedgesLaunched  atomic.Int64
	hedgeWins       atomic.Int64
	hedgesCanceled  atomic.Int64
	rebalanceJoins  atomic.Int64
	rebalanceLeaves atomic.Int64

	latMu sync.Mutex
	lats  stats.Window[time.Duration] // latencies of the last successful batches; guarded by latMu

	closed   atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	loopDone sync.WaitGroup
	drains   sync.WaitGroup
}

var _ backend.Backend = (*Router)(nil)

// NewRouter builds the router and starts its health loop.
func NewRouter(cfg Config) (*Router, error) {
	rg, err := newRing(cfg.Workers)
	if err != nil {
		return nil, err
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	budget := backend.NewRetryBudget(retryBudgetRatio, retryBudgetBurst)
	workers := make(map[string]*worker, len(cfg.Workers))
	for _, addr := range cfg.Workers {
		w, err := newWorker(cfg, hc, budget, addr)
		if err != nil {
			return nil, err
		}
		workers[addr] = w
	}
	rt := &Router{cfg: cfg, hc: hc, budget: budget, ring: rg, workers: workers, stop: make(chan struct{}),
		lats: stats.NewWindow[time.Duration](latencyWindow)}
	if cfg.healthInterval() > 0 {
		rt.loopDone.Add(1)
		go rt.healthLoop(hc)
	}
	return rt, nil
}

// candidates returns the stage's failover preference list — ring order from
// the owner, admitted (circuit-closed) workers first, ring order preserved
// within each tier — plus the owning address on the current ring. With the
// whole fleet's circuits open the raw ring order is returned: batches still
// try the owner, so a flapping fleet cannot wedge the router.
func (rt *Router) candidates(stageKey string) (cands []*worker, owner string) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	var healthy, down []*worker
	for _, addr := range rt.ring.ordered(stageKey) {
		w := rt.workers[addr]
		if w == nil {
			continue // removed mid-iteration; ring and map swap atomically under mu
		}
		if w.isDown() {
			down = append(down, w)
		} else {
			healthy = append(healthy, w)
		}
	}
	return append(healthy, down...), rt.ring.owner(stageKey)
}

// RunBatch routes the batch per the placement rules above.
func (rt *Router) RunBatch(ctx context.Context, spec backend.BatchSpec) (backend.BatchResult, error) {
	if err := ctx.Err(); err != nil {
		return backend.BatchResult{}, err
	}
	if rt.closed.Load() {
		return backend.BatchResult{}, fmt.Errorf("cluster: router is closed")
	}

	cands, owner := rt.candidates(spec.StageKey)
	if len(cands) == 0 {
		return backend.BatchResult{}, fmt.Errorf("cluster: no workers in the fleet")
	}
	primary := cands[0]
	if primary.addr != owner {
		rt.ringMoves.Add(1)
	}
	// One part per distinct target: the primary alone, or the primary and
	// its ring successor when the primary already runs its nominal budget of
	// batches. How wide a part is cut further is its worker's decision.
	targets := []*worker{primary}
	if primary.inflight.Load() >= int64(primary.capacity) && len(cands) > 1 {
		targets = append(targets, cands[1])
		rt.hotReplications.Add(1)
	}
	parts, err := backend.SplitByGroups(spec, len(targets))
	if err != nil {
		return backend.BatchResult{}, err
	}
	if len(parts) == 1 {
		// An unsplittable batch overflows whole, to the replica if there is one.
		targets = targets[len(targets)-1:]
	}
	obs.FromContext(ctx).Set("cluster.primary", primary.addr)
	return backend.RunParts(ctx, parts, func(ctx context.Context, i int, part backend.BatchSpec) (backend.BatchResult, error) {
		return rt.runPart(ctx, part, targets[i], cands)
	})
}

// runPart serves one part, failing over along the candidate list. first is
// the part's target; on a transient failure the part walks the remaining
// candidates in ring order. A worker whose circuit breaker denies
// admission is skipped while an admitted candidate remains (the breaker
// itself meters half-open probes); with every circuit open the walk tries
// workers anyway, so a fleet-wide brownout degrades instead of wedging.
// Deterministic worker rejections (4xx) and the caller's own cancellation
// are final.
func (rt *Router) runPart(ctx context.Context, part backend.BatchSpec, first *worker, cands []*worker) (backend.BatchResult, error) {
	order := make([]*worker, 0, len(cands)+1)
	seen := make(map[*worker]bool, len(cands)+1)
	for _, w := range append([]*worker{first}, cands...) {
		if !seen[w] {
			seen[w] = true
			order = append(order, w)
		}
	}
	tried := make(map[*worker]bool, len(order))
	anyClosed := func(from int) bool {
		for _, w := range order[from:] {
			if !tried[w] && !w.cb.isOpen() {
				return true
			}
		}
		return false
	}
	var lastErr error
	for i, w := range order {
		if tried[w] {
			continue
		}
		// Breaker admission: allow() grants closed traffic and metered
		// half-open probes; a denied worker is skipped only while a
		// closed-circuit candidate remains untried.
		if !w.cb.allow() && anyClosed(i+1) {
			continue
		}
		tried[w] = true
		hedge := rt.hedgeTarget(order, tried, i+1)
		res, err := rt.dispatch(ctx, part, w, hedge, tried)
		if err == nil {
			return res, nil
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return backend.BatchResult{}, ctxErr
		}
		var re *backend.RemoteError
		if errors.As(err, &re) && !re.Transient() {
			return backend.BatchResult{}, err
		}
		lastErr = err
	}
	return backend.BatchResult{}, fmt.Errorf("cluster: all %d workers failed for stage part: %w", len(order), lastErr)
}

// Close stops the health loop, waits for removed-worker drains, and closes
// every worker connection. Worker processes are not owned by the router and
// keep serving.
func (rt *Router) Close() error {
	rt.closed.Store(true)
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.loopDone.Wait()
	rt.drains.Wait()
	var firstErr error
	for _, w := range rt.snapshotWorkers() {
		if err := w.remote.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
