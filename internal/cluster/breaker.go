package cluster

import (
	"sync"
	"time"

	"repro/internal/stats"
)

// BreakerState names a circuit breaker's position.
type BreakerState string

const (
	// BreakerClosed: traffic flows; failures are being counted.
	BreakerClosed BreakerState = "closed"
	// BreakerOpen: the worker is cut off until the cooldown elapses.
	BreakerOpen BreakerState = "open"
	// BreakerHalfOpen: the cooldown elapsed and exactly one probe batch is
	// in flight; its outcome closes or re-opens the circuit.
	BreakerHalfOpen BreakerState = "half-open"
)

// breakerConfig sizes one worker's circuit breaker.
type breakerConfig struct {
	// threshold opens the circuit on this many consecutive failures.
	threshold int
	// window and errorRate open the circuit when at least minSamples
	// outcomes are in the rolling window and the failure fraction reaches
	// errorRate — catching a worker that fails often without ever failing
	// threshold times in a row.
	window     int
	minSamples int
	errorRate  float64
	// cooldown is how long an open circuit blocks before admitting the
	// half-open probe.
	cooldown time.Duration
}

// breaker is a per-worker circuit breaker: closed → open on consecutive
// failures or windowed error rate, open → half-open after the cooldown,
// half-open → closed on a probe success (or back to open on failure). It
// replaces the raw consecutive-failure mark-down: an open breaker is what
// "down" means to the router, and health-probe outcomes feed the same
// circuit as batch outcomes, so a recovered worker closes its breaker on
// the first healthy answer.
type breaker struct {
	cfg breakerConfig

	mu       sync.Mutex
	state    BreakerState       // guarded by mu
	failures int                // consecutive failures; guarded by mu
	outcomes stats.Window[bool] // rolling window, true = failure; guarded by mu
	openedAt time.Time          // when the circuit last opened; guarded by mu
	probing  bool               // half-open probe in flight; guarded by mu
	opens    int64              // closed/half-open → open transitions; guarded by mu
}

// What a breakerConfig's zero fields resolve to — the only values a Router
// runs with (it sets threshold, to markdownAfter, and nothing else).
const (
	// breakerWindow / breakerMinSamples / breakerErrorRate: half of the
	// last 20 sends failing opens the circuit, and never on fewer than 10
	// outcomes, so one bad batch on a quiet worker is left to threshold.
	breakerWindow     = 20
	breakerMinSamples = 10
	breakerErrorRate  = 0.5
	// breakerCooldown is how long an opened circuit blocks before one
	// half-open probe batch is admitted. Health probes are never blocked
	// and a healthy answer closes the circuit early, so it only has to be
	// shorter than the 2 s health sweep for traffic to find a recovery first.
	breakerCooldown = time.Second
)

func newBreaker(cfg breakerConfig) *breaker {
	if cfg.window <= 0 {
		cfg.window = breakerWindow
	}
	if cfg.minSamples <= 0 {
		cfg.minSamples = breakerMinSamples
	}
	if cfg.errorRate <= 0 || cfg.errorRate > 1 {
		cfg.errorRate = breakerErrorRate
	}
	if cfg.cooldown <= 0 {
		cfg.cooldown = breakerCooldown
	}
	return &breaker{cfg: cfg, state: BreakerClosed, outcomes: stats.NewWindow[bool](cfg.window)}
}

// allow reports whether a batch may be dispatched to the worker right now.
// A closed circuit always admits; an open one admits nothing until the
// cooldown elapses, at which point exactly one caller is admitted as the
// half-open probe (concurrent callers keep seeing the circuit open).
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if time.Since(b.openedAt) < b.cfg.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// record feeds one outcome (a send or a health probe) into the circuit.
// It reports whether this call opened the circuit.
func (b *breaker) record(failed bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.outcomes.Add(failed)
	if !failed {
		b.failures = 0
		b.probing = false
		if b.state != BreakerClosed {
			b.state = BreakerClosed
			// A recovered worker starts with a clean slate: stale window
			// failures from before the outage must not instantly re-open.
			b.outcomes.Reset()
		}
		return false
	}
	b.failures++
	b.probing = false
	if b.state == BreakerOpen {
		return false
	}
	if b.state == BreakerHalfOpen || b.failures >= b.cfg.threshold || b.rateTrippedLocked() {
		b.state = BreakerOpen
		b.openedAt = time.Now()
		b.opens++
		return true
	}
	return false
}

// rateTrippedLocked reports whether the rolling-window error rate crossed
// the configured threshold.
//
//llmqlint:holds mu
func (b *breaker) rateTrippedLocked() bool {
	if b.outcomes.Len() < b.cfg.minSamples {
		return false
	}
	fails := 0
	for f := range b.outcomes.All() {
		if f {
			fails++
		}
	}
	return float64(fails)/float64(b.outcomes.Len()) >= b.cfg.errorRate
}

// snapshot returns the current state and the open-transition count.
func (b *breaker) snapshot() (BreakerState, int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.opens
}

// isOpen reports whether the circuit currently blocks regular traffic
// (open or probing half-open) — the router's notion of "down".
func (b *breaker) isOpen() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state != BreakerClosed
}
