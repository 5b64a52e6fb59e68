package cluster

import (
	"net/http"
	"time"
)

// Config sizes a Router.
type Config struct {
	// Workers are the fleet's /v1/batch addresses ("host:port" or full
	// URLs). At least one is required.
	Workers []string
	// Capacity is a worker's nominal concurrent-batch budget (default 4): a
	// primary with this many whole batches in flight is saturated, and the
	// next batch for its stages overflows onto the ring successor.
	Capacity int
	// HealthInterval is the period between health sweeps (default 2s;
	// negative disables the health loop — worker circuits are then only
	// opened by failed batches and never close without traffic).
	HealthInterval time.Duration
	// MarkdownAfter is the circuit breaker's consecutive-failure threshold:
	// how many consecutive probe failures open a worker's circuit (default
	// 2; a failed batch counts MarkdownAfter at once, since it already
	// survived the remote backend's own retries).
	MarkdownAfter int
	// HedgeAfter controls hedged batch sends: after this long without an
	// answer, the same part is also dispatched to the next admitted ring
	// node and the first answer wins (the loser is canceled; only the
	// winner's result is merged, so accounting never double-charges). Zero
	// is adaptive — the slowest of the last 128 successful batches; negative
	// disables hedging.
	HedgeAfter time.Duration
	// MaxRetries / RetryBackoff configure each worker's backend.Remote
	// (see backend.RemoteConfig); failover to the next ring node happens
	// only after a worker exhausts these.
	MaxRetries   int
	RetryBackoff time.Duration
	// HTTPClient is shared by batch dispatch and health probes; nil builds
	// a default client. Chaos runs mount a faults.RoundTripper here.
	HTTPClient *http.Client
}

func (c Config) capacity() int {
	if c.Capacity > 0 {
		return c.Capacity
	}
	return 4
}

func (c Config) healthInterval() time.Duration {
	if c.HealthInterval != 0 {
		return c.HealthInterval
	}
	return 2 * time.Second
}

func (c Config) markdownAfter() int {
	if c.MarkdownAfter > 0 {
		return c.MarkdownAfter
	}
	return 2
}

// retryBudgetRatio / retryBudgetBurst size the retry budget shared by every
// worker's Remote (see backend.RetryBudget): retries stay under a fifth of
// real traffic in steady state, and a cold or quiet router can still retry
// through a burst of ten faults.
const (
	retryBudgetRatio = 0.2
	retryBudgetBurst = 10
)
