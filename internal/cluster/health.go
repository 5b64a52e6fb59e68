package cluster

import (
	"context"
	"net/http"
	"time"
)

// healthTimeout bounds one health probe. A sweep probes the workers one
// after another, so it stays well under the default 2 s sweep period: a
// few hung workers cannot push one sweep into the next.
const healthTimeout = 500 * time.Millisecond

// healthLoop probes every worker each HealthInterval: a 200 from /healthz
// counts as a breaker success (closing an open circuit on recovery),
// anything else — including a draining worker's 503 — counts one failure
// toward the breaker's threshold. Open-circuit workers keep being probed;
// the first healthy answer closes the circuit.
func (rt *Router) healthLoop(hc *http.Client) {
	defer rt.loopDone.Done()
	ticker := time.NewTicker(rt.cfg.healthInterval())
	defer ticker.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-ticker.C:
		}
		for _, w := range rt.snapshotWorkers() {
			rt.probe(hc, w)
		}
	}
}

// probe performs one health check against w, feeding its circuit breaker.
func (rt *Router) probe(hc *http.Client, w *worker) {
	// The health loop outlives any one batch; its probes are detached from
	// request contexts by design.
	//llmqlint:detached -- background health loop, bounded by healthTimeout
	ctx, cancel := context.WithTimeout(context.Background(), healthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.healthURL, nil)
	if err != nil {
		w.cb.record(true, 1)
		return
	}
	resp, err := hc.Do(req)
	if err != nil {
		w.cb.record(true, 1)
		return
	}
	resp.Body.Close()
	w.cb.record(resp.StatusCode != http.StatusOK, 1)
}
