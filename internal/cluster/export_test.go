package cluster

import "time"

// Timings are the router timings production fixes and tests vary. A zero
// field keeps production's value.
type Timings struct {
	HealthInterval time.Duration // negative: no health loop
	HedgeAfter     time.Duration // positive: a fixed hedge delay; negative: no hedging
	MaxRetries     int           // each worker's remote retries; negative: none
	RetryBackoff   time.Duration // each worker's first retry backoff
}

// With returns c running at t's timings.
func (c Config) With(t Timings) Config {
	c.healthInterval, c.hedgeAfter = t.HealthInterval, t.HedgeAfter
	c.maxRetries, c.retryBackoff = t.MaxRetries, t.RetryBackoff
	return c
}
