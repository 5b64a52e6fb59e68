package cluster

import "time"

// Timings are the router timings production fixes and tests vary. A zero
// field keeps production's value.
type Timings struct {
	HealthInterval time.Duration // negative: no health loop
	HedgeAfter     time.Duration // positive: a fixed hedge delay; negative: no hedging
}

// With returns c running at t's timings.
func (c Config) With(t Timings) Config {
	c.healthInterval, c.hedgeAfter = t.HealthInterval, t.HedgeAfter
	return c
}
