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

// hedgeTarget picks the hedge candidate for a dispatch: the first untried
// worker from position from whose circuit is closed (a hedge is a latency
// optimization — it never spends a half-open probe slot).
func (rt *Router) hedgeTarget(order []*worker, tried map[*worker]bool, from int) *worker {
	for _, w := range order[from:] {
		if !tried[w] && !w.cb.isOpen() {
			return w
		}
	}
	return nil
}

// dispatch serves the batch on primary, hedging to hedge if no answer lands
// within the hedge delay. The first success wins and the loser is canceled;
// only the winner's result is returned, so accounting never double-charges.
// A hedge launched during the race marks its worker tried in the caller's
// failover walk — its outcome (either way) already fed that worker's
// breaker.
func (rt *Router) dispatch(ctx context.Context, spec backend.BatchSpec, primary, hedge *worker, tried map[*worker]bool) (backend.BatchResult, error) {
	delay, ok := rt.hedgeDelay(ctx)
	if hedge == nil || !ok {
		return rt.send(ctx, spec, primary)
	}

	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		res    backend.BatchResult
		err    error
		hedged bool
	}
	ch := make(chan outcome, 2)
	go func() {
		res, err := rt.send(dctx, spec, primary)
		ch <- outcome{res, err, false}
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
					if o.hedged {
						rt.hedgeWins.Add(1)
					} else {
						rt.hedgesCanceled.Add(1)
					}
				}
				return o.res, nil
			}
			if !launched {
				// Primary failed before the hedge would launch: hedging is
				// for tail latency, failover handles failures.
				return backend.BatchResult{}, o.err
			}
			if firstFail == nil {
				firstFail = &o
				continue // the race partner may still answer
			}
			// Both failed: surface the non-hedged error first (the hedge's
			// failure is usually the same root cause one hop later).
			if firstFail.hedged {
				return backend.BatchResult{}, o.err
			}
			return backend.BatchResult{}, firstFail.err
		case <-timer.C:
			if launched {
				continue
			}
			launched = true
			tried[hedge] = true
			rt.hedgesLaunched.Add(1)
			go func() {
				res, err := rt.send(dctx, spec, hedge)
				ch <- outcome{res, err, true}
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
// transient failure counts markdownAfter consecutive failures at once
// (the remote already retried). The caller's own death is not the
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
		w.cb.record(false, 1)
		return res, nil
	}
	if ctx.Err() == nil {
		var re *backend.RemoteError
		if transient := !errors.As(err, &re) || re.Transient(); transient {
			w.cb.record(true, markdownAfter)
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
