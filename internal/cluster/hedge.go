package cluster

import (
	"context"
	"errors"
	"time"

	"repro/internal/backend"
)

// defaultHedgeDelay is the adaptive hedge delay before any latency samples
// exist — deliberately conservative so a cold router does not hedge its
// first batches.
const defaultHedgeDelay = 250 * time.Millisecond

// latencyWindow is how many successful batches the adaptive hedge delay
// looks back over.
const latencyWindow = 128

// hedgeTarget picks the hedge partner for a dispatch to order[at]: the next
// closed-circuit worker after it in ring order, wrapping around, so a send
// late in the walk still has a partner. A hedge is a latency optimization:
// it never spends a half-open probe slot.
func hedgeTarget(order []*worker, at int) *worker {
	for k := 1; k < len(order); k++ {
		if w := order[(at+k)%len(order)]; !w.cb.isOpen() {
			return w
		}
	}
	return nil
}

// dispatch serves the batch on primary, hedging to hedge if no answer lands
// within the hedge delay, and returns the worker that answered. The first
// success wins and the loser is canceled; only the winner's result is
// returned, so accounting never double-charges. A hedge launched during
// the race marks its worker tried in the caller's pass — its outcome
// (either way) already fed that worker's breaker.
func (rt *Router) dispatch(ctx context.Context, spec backend.BatchSpec, primary, hedge *worker, tried map[*worker]bool) (backend.BatchResult, *worker, error) {
	delay, ok := rt.hedgeDelay(ctx)
	if hedge == nil || !ok {
		res, err := rt.send(ctx, spec, primary)
		return res, primary, err
	}

	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		res backend.BatchResult
		err error
		w   *worker
	}
	ch := make(chan outcome, 2)
	go func() {
		res, err := rt.send(dctx, spec, primary)
		ch <- outcome{res, err, primary}
	}()
	timer := time.NewTimer(delay)
	defer timer.Stop()
	launched := false
	var firstFail *outcome
	for {
		select {
		case o := <-ch:
			if o.err == nil {
				cancel()
				if launched {
					if o.w == hedge {
						rt.hedgeWins.Add(1)
					} else {
						rt.hedgesCanceled.Add(1)
					}
				}
				return o.res, o.w, nil
			}
			if !launched {
				// Primary failed before the hedge would launch: hedging is
				// for tail latency, failover handles failures.
				return backend.BatchResult{}, nil, o.err
			}
			if firstFail == nil {
				firstFail = &o
				continue // the race partner may still answer
			}
			// Both failed: surface the primary's error (the hedge's failure
			// is usually the same root cause one hop later).
			if firstFail.w == hedge {
				return backend.BatchResult{}, nil, o.err
			}
			return backend.BatchResult{}, nil, firstFail.err
		case <-timer.C:
			if launched {
				continue
			}
			launched = true
			tried[hedge] = true
			rt.hedgesLaunched.Add(1)
			go func() {
				res, err := rt.send(dctx, spec, hedge)
				ch <- outcome{res, err, hedge}
			}()
		}
	}
}

// hedgeDelay resolves the effective hedge delay for this dispatch — the
// adaptive slowestRecent unless a test fixed it — and whether hedging
// applies at all: off in a test, or suppressed when the caller's remaining
// deadline could not outlive the hedge anyway.
func (rt *Router) hedgeDelay(ctx context.Context) (time.Duration, bool) {
	d := rt.cfg.hedgeAfter
	if d < 0 {
		return 0, false
	}
	if d == 0 {
		if d = rt.slowestRecent(); d == 0 {
			d = defaultHedgeDelay
		}
	}
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= d {
		return 0, false
	}
	return d, true
}

// send runs the batch on one worker, feeding its circuit breaker: a success
// closes/credits the circuit and lands in the latency reservoir; a
// transient failure counts one failure. The caller's own death is not the
// worker's fault and is never charged to the breaker.
func (rt *Router) send(ctx context.Context, spec backend.BatchSpec, w *worker) (backend.BatchResult, error) {
	w.inflight.Add(1)
	start := time.Now()
	res, err := w.remote.RunBatch(ctx, spec)
	w.inflight.Add(-1)
	if err == nil {
		rt.latMu.Lock()
		rt.lats.Add(time.Since(start))
		rt.latMu.Unlock()
		w.cb.record(false)
		return res, nil
	}
	if ctx.Err() == nil {
		var re *backend.RemoteError
		if transient := !errors.As(err, &re) || re.Transient(); transient {
			w.cb.record(true)
		}
	}
	return backend.BatchResult{}, err
}

// slowestRecent is the adaptive hedge delay: the slowest of the last
// latencyWindow successful batches (0 with none yet) — a batch is hedged
// only once it has run longer than anything recently seen to succeed.
func (rt *Router) slowestRecent() time.Duration {
	rt.latMu.Lock()
	defer rt.latMu.Unlock()
	var slowest time.Duration
	for d := range rt.lats.All() {
		slowest = max(slowest, d)
	}
	return slowest
}
