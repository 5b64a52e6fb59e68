package cluster

import (
	"net/http"
	"time"
)

// Config sizes a Router. Everything else about a router is fixed: the
// health sweep period (healthInterval), the breaker's threshold
// (markdownAfter), the adaptive hedge delay (hedge.go), and each worker's
// remote retries (backend.RemoteConfig's defaults).
type Config struct {
	// Workers are the fleet's /v1/batch addresses ("host:port" or full
	// URLs). At least one is required.
	Workers []string
	// HTTPClient is shared by batch dispatch and health probes; nil builds
	// a default client. Chaos runs mount a faults.RoundTripper here.
	HTTPClient *http.Client

	// Test timings (export_test.go); the zero values are production's.
	healthInterval time.Duration // negative: no health loop
	hedgeAfter     time.Duration // positive: a fixed hedge delay; negative: no hedging
	maxRetries     int           // backend.RemoteConfig.MaxRetries
	retryBackoff   time.Duration // backend.RemoteConfig.RetryBackoff
}

// healthInterval is the period between health sweeps.
const healthInterval = 2 * time.Second

// markdownAfter is the circuit breaker's consecutive-failure threshold: two
// failed probes open a worker's circuit, and so does one failed batch, which
// counts markdownAfter at once since it already survived the remote
// backend's own retries.
const markdownAfter = 2

// retryBudgetRatio / retryBudgetBurst size the retry budget shared by every
// worker's Remote (see backend.RetryBudget): retries stay under a fifth of
// real traffic in steady state, and a cold or quiet router can still retry
// through a burst of ten faults.
const (
	retryBudgetRatio = 0.2
	retryBudgetBurst = 10
)
