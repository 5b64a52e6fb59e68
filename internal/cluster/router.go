package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
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
//  1. The ring names the stage's owner, and the owner gets the batch whole;
//     an owner whose circuit breaker is open fails over to the next
//     distinct ring node, so a broken worker's stages land
//     deterministically on its successor. A batch answered by any worker
//     but its owner counts as a ring move. The batch keeps its
//     group starts, and the worker that serves it shards it across its own
//     engine replicas (server.NewWorker): the process that owns the pool
//     decides the fan-out width, once.
//  2. A batch without an answer after the hedge delay is also dispatched to
//     the next closed-circuit ring node after its worker, wrapping around;
//     the first answer wins and the loser is canceled — only the winner's
//     result is returned, so hedges never double-charge.
//  3. A batch whose worker fails feeds that worker's circuit breaker and
//     goes at once to the next ring node. The walk over the candidates is
//     the only retry loop (backend.Remote makes one POST) and the breakers
//     are its budget: at most retryPasses passes with a pause between
//     them, later passes only to workers the breaker admits, and no pause
//     at all once every circuit is open, so a dead fleet costs a batch one
//     attempt per worker. Every failed send counts once toward its
//     worker's breaker, so two in a row open it, and a one-worker fleet
//     gets at most 2 tries per batch. Deterministic 4xx rejections and the
//     caller's own cancellation are final.
//
// Why these mechanisms and no others (ROADMAP item 14, measured on a
// 3-worker fleet with one faulted worker): without hedging, p99 rose 3 to
// 20 times under a spiky, erroring or crashed worker, and a hung one held
// batches for its full 2 s; the breaker and the health loop keep a down
// worker out of the candidate order, and the health loop is the only way
// back in; failover is what answers at all when a worker dies. A busy
// owner still gets its batch whole: cutting it onto the ring successor
// changed no answer and no p99 beyond run-to-run spread under any fault
// profile. Retrying on the same worker inside the remote backend, under a
// shared retry budget, lowered no p99 or max either; under a 30 % error
// rate it kept more batches on their owner, at the price of a tail.
//
// The fleet is live: AddWorker/RemoveWorker rebalance the consistent-hash
// ring on a running router (~1/N of stages move), in-flight batches drain
// on their old assignment, and removed workers stop counting toward ring
// moves the moment they leave.
type Router struct {
	cfg Config
	hc  *http.Client

	mu      sync.RWMutex
	ring    *ring              // guarded by mu
	workers map[string]*worker // guarded by mu

	ringMoves       atomic.Int64
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
	if cfg.healthInterval == 0 {
		cfg.healthInterval = healthInterval
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	workers := make(map[string]*worker, len(cfg.Workers))
	for _, addr := range cfg.Workers {
		w, err := newWorker(hc, addr)
		if err != nil {
			return nil, err
		}
		workers[addr] = w
	}
	rt := &Router{cfg: cfg, hc: hc, ring: rg, workers: workers, stop: make(chan struct{}),
		lats: stats.NewWindow[time.Duration](latencyWindow)}
	if cfg.healthInterval > 0 {
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
	obs.FromContext(ctx).Set("cluster.primary", cands[0].addr)
	res, served, err := rt.runPart(ctx, spec, cands)
	if err == nil && served.addr != owner {
		rt.ringMoves.Add(1)
	}
	return res, err
}

// runPart serves the batch whole and returns the worker that answered. It
// walks the candidate list for at most retryPasses passes. Pass 1 skips a
// worker whose breaker denies admission only while a closed-circuit
// candidate remains untried (the breaker itself meters half-open probes),
// so a fleet-wide brownout degrades instead of wedging; later passes try
// only workers the breaker admits. Between passes the walk waits an
// equal-jittered pause from retryPause, doubled per pass, unless every
// circuit is open: then it fails at once.
func (rt *Router) runPart(ctx context.Context, spec backend.BatchSpec, cands []*worker) (backend.BatchResult, *worker, error) {
	var tried map[*worker]bool
	anyClosed := func(from int) bool {
		for _, w := range cands[from:] {
			if !tried[w] && !w.cb.isOpen() {
				return true
			}
		}
		return false
	}
	var lastErr error
	var failed *worker // charged a retry when the walk sends the batch again
	pause := retryPause
	for pass := 0; pass < retryPasses; pass++ {
		if pass > 0 {
			tried = nil // anyClosed(0) now asks about every candidate
			if !anyClosed(0) {
				break
			}
			// Equal jitter, [pause/2, pause]: the mean stays high enough to
			// matter while a retry stampede decorrelates.
			select {
			case <-ctx.Done():
				return backend.BatchResult{}, nil, ctx.Err()
			case <-time.After(pause/2 + time.Duration(rand.Int64N(int64(pause/2)+1))):
			}
			pause *= 2
		}
		tried = make(map[*worker]bool, len(cands))
		for i, w := range cands {
			if tried[w] || !w.cb.allow() && (pass > 0 || anyClosed(i+1)) {
				continue
			}
			tried[w] = true
			if failed != nil {
				failed.retries.Add(1)
			}
			res, served, err := rt.dispatch(ctx, spec, w, hedgeTarget(cands, i), tried)
			if err == nil {
				return res, served, nil
			}
			if ctxErr := ctx.Err(); ctxErr != nil {
				return backend.BatchResult{}, nil, ctxErr
			}
			var re *backend.RemoteError
			if errors.As(err, &re) && !re.Transient() {
				return backend.BatchResult{}, nil, err
			}
			failed, lastErr = w, err
		}
	}
	return backend.BatchResult{}, nil, fmt.Errorf("cluster: all %d workers failed for stage %q: %w", len(cands), spec.StageKey, lastErr)
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
