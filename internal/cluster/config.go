package cluster

import (
	"net/http"
	"time"
)

// Config sizes a Router. Everything else about a router is fixed: the
// health sweep period (healthInterval), the breaker's threshold
// (markdownAfter), the adaptive hedge delay (hedge.go), and the retry walk
// (retryPasses, retryPause).
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
}

// healthInterval is the period between health sweeps.
const healthInterval = 2 * time.Second

// markdownAfter is the circuit breaker's consecutive-failure threshold:
// two failed sends or probes in a row open a worker's circuit.
const markdownAfter = 2

// retryPasses bounds the router's walk over a batch's candidates: each
// worker is tried at most this many times per batch, the 1 + 2 tries the
// remote backend once made on its own.
const retryPasses = 3

// retryPause is the first pause between two passes of the walk, doubled
// per pass and equal-jittered.
const retryPause = 25 * time.Millisecond
