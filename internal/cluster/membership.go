package cluster

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/backend"
)

// worker is the router's view of one fleet member. A worker's "down" state
// is its circuit breaker being non-closed.
type worker struct {
	addr      string
	healthURL string
	remote    *backend.Remote
	capacity  int
	cb        *breaker

	inflight atomic.Int64 // batches currently dispatched to this worker
}

func (w *worker) isDown() bool { return w.cb.isOpen() }

// newWorker builds the router's view of one fleet member.
func newWorker(cfg Config, hc *http.Client, budget *backend.RetryBudget, addr string) (*worker, error) {
	rem, err := backend.NewRemote(backend.RemoteConfig{
		Addr:         addr,
		Client:       hc,
		MaxRetries:   cfg.MaxRetries,
		RetryBackoff: cfg.RetryBackoff,
		Budget:       budget,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: worker %s: %w", addr, err)
	}
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &worker{
		addr:      addr,
		healthURL: strings.TrimRight(base, "/") + "/healthz",
		remote:    rem,
		capacity:  cfg.capacity(),
		cb:        newBreaker(breakerConfig{threshold: cfg.markdownAfter()}),
	}, nil
}

// Workers lists the fleet's current addresses, sorted.
func (rt *Router) Workers() []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	addrs := make([]string, 0, len(rt.workers))
	for addr := range rt.workers {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	return addrs
}

// AddWorker joins a worker to the running fleet: the consistent-hash ring
// rebuilds with the new member (≈1/N of stages move to it; everything else
// keeps its assignment), and subsequent batches route on the new ring.
func (rt *Router) AddWorker(addr string) error {
	if rt.closed.Load() {
		return fmt.Errorf("cluster: router is closed")
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, ok := rt.workers[addr]; ok {
		return fmt.Errorf("cluster: worker %s is already in the fleet", addr)
	}
	addrs := make([]string, 0, len(rt.workers)+1)
	for a := range rt.workers {
		addrs = append(addrs, a)
	}
	addrs = append(addrs, addr)
	rg, err := newRing(addrs)
	if err != nil {
		return err
	}
	w, err := newWorker(rt.cfg, rt.hc, rt.budget, addr)
	if err != nil {
		return err
	}
	rt.workers[addr] = w
	rt.ring = rg
	rt.rebalanceJoins.Add(1)
	return nil
}

// RemoveWorker removes a worker from the running fleet. The ring rebuilds
// without it immediately — its stages move to their ring successors and it
// stops counting toward ring moves — while batches already dispatched to it
// drain on the old assignment; its connections close once they finish. The
// last worker cannot be removed.
func (rt *Router) RemoveWorker(addr string) error {
	rt.mu.Lock()
	w, ok := rt.workers[addr]
	if !ok {
		rt.mu.Unlock()
		return fmt.Errorf("cluster: worker %s is not in the fleet", addr)
	}
	if len(rt.workers) == 1 {
		rt.mu.Unlock()
		return fmt.Errorf("cluster: cannot remove the last worker %s", addr)
	}
	delete(rt.workers, addr)
	addrs := make([]string, 0, len(rt.workers))
	for a := range rt.workers {
		addrs = append(addrs, a)
	}
	rg, err := newRing(addrs)
	if err != nil {
		// Unreachable (non-empty, deduplicated by construction); restore.
		rt.workers[addr] = w
		rt.mu.Unlock()
		return err
	}
	rt.ring = rg
	rt.rebalanceLeaves.Add(1)
	rt.mu.Unlock()

	// Drain: in-flight batches hold their worker and finish on the old
	// assignment; the remote closes only when the last one lands (or the
	// router itself closes).
	rt.drains.Add(1)
	go func() {
		defer rt.drains.Done()
		for w.inflight.Load() > 0 && !rt.closed.Load() {
			time.Sleep(5 * time.Millisecond)
		}
		_ = w.remote.Close()
	}()
	return nil
}

// snapshotWorkers copies the live worker set for lock-free iteration.
func (rt *Router) snapshotWorkers() []*worker {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	ws := make([]*worker, 0, len(rt.workers))
	for _, w := range rt.workers {
		ws = append(ws, w)
	}
	return ws
}
