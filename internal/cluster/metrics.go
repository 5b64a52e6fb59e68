package cluster

// WorkerMetrics is one worker's routing accounting.
//
// Counting fields are conserved accounting: the llmqlint accounting
// analyzer rejects keyed literals that set some counters and omit others.
//
//llmqlint:accounting
type WorkerMetrics struct {
	// Batches/Retries/Errors/BudgetDenied are the worker's
	// backend.RemoteStats; Markdowns counts circuit-open transitions;
	// InFlight is the live dispatched-batch gauge.
	Batches      int64 `json:"batches"`
	Retries      int64 `json:"retries"`
	Errors       int64 `json:"errors"`
	BudgetDenied int64 `json:"budgetDenied"`
	Markdowns    int64 `json:"markdowns"`
	InFlight     int64 `json:"inFlight"`
	// Down reports a non-closed circuit; Breaker names the state exactly.
	Down    bool         `json:"down"`
	Breaker BreakerState `json:"breaker"`
}

// Metrics is the router's fleet accounting, folded into runtime.Metrics and
// the Prometheus exposition.
//
// Counting fields are conserved accounting: the llmqlint accounting
// analyzer rejects keyed literals that set some counters and omit others.
//
//llmqlint:accounting
type Metrics struct {
	// Workers maps worker address to its counters (current fleet members
	// only; a removed worker's counters leave with it).
	Workers map[string]WorkerMetrics `json:"workers"`
	// RingMoves counts batches served off their ring owner (failover);
	// HotReplications counts batches that added a replica target because
	// the primary was saturated.
	RingMoves       int64 `json:"ringMoves"`
	HotReplications int64 `json:"hotReplications"`
	// HedgesLaunched counts hedge dispatches; HedgeWins the races the hedge
	// answered first; HedgesCanceled the races the primary won after the
	// hedge launched. Wins + canceled ≤ launched (races whose winner was an
	// error resolve as neither).
	HedgesLaunched int64 `json:"hedgesLaunched"`
	HedgeWins      int64 `json:"hedgeWins"`
	HedgesCanceled int64 `json:"hedgesCanceled"`
	// RebalanceJoins / RebalanceLeaves count live fleet membership changes.
	RebalanceJoins  int64 `json:"rebalanceJoins"`
	RebalanceLeaves int64 `json:"rebalanceLeaves"`
}

// Metrics snapshots the fleet counters.
func (rt *Router) Metrics() Metrics {
	rt.mu.RLock()
	ws := make(map[string]WorkerMetrics, len(rt.workers))
	for addr, w := range rt.workers {
		rs := w.remote.Stats()
		state, opens := w.cb.snapshot()
		ws[addr] = WorkerMetrics{
			Batches:      rs.Batches,
			Retries:      rs.Retries,
			Errors:       rs.Errors,
			BudgetDenied: rs.BudgetDenied,
			Markdowns:    opens,
			InFlight:     w.inflight.Load(),
			Down:         state != BreakerClosed,
			Breaker:      state,
		}
	}
	rt.mu.RUnlock()
	return Metrics{
		Workers:         ws,
		RingMoves:       rt.ringMoves.Load(),
		HotReplications: rt.hotReplications.Load(),
		HedgesLaunched:  rt.hedgesLaunched.Load(),
		HedgeWins:       rt.hedgeWins.Load(),
		HedgesCanceled:  rt.hedgesCanceled.Load(),
		RebalanceJoins:  rt.rebalanceJoins.Load(),
		RebalanceLeaves: rt.rebalanceLeaves.Load(),
	}
}
