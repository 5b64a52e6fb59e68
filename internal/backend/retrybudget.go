package backend

import (
	"errors"
	"math"
	"sync"
)

// ErrRetryBudgetExhausted is the distinct fail-fast error a Remote returns
// when its shared RetryBudget has no tokens left: the fleet is failing
// broadly enough that piling on retries would amplify the outage rather
// than ride it out. Callers (and the cluster router's failover walk) treat
// it like any other transient failure of that worker — it does not poison
// the statement — but no further retries are spent on the attempt.
var ErrRetryBudgetExhausted = errors.New("backend: retry budget exhausted")

// RetryBudget is a token bucket shared by every Remote on one router,
// capping fleet-wide retry amplification: each first attempt deposits
// Ratio tokens (capped at Burst) and each retry withdraws one, so retries
// are bounded to ~Ratio of real traffic in steady state, while the Burst
// floor lets a cold or quiet router still absorb a short fault burst.
//
// A nil *RetryBudget never denies — budgets are opt-in per router.
type RetryBudget struct {
	mu     sync.Mutex
	ratio  float64
	burst  float64
	tokens float64 // guarded by mu
	denied int64   // guarded by mu
}

// NewRetryBudget builds a budget depositing ratio tokens per first attempt
// with a bucket cap of burst tokens. The bucket starts full so startup
// turbulence can be retried through.
func NewRetryBudget(ratio float64, burst int) *RetryBudget {
	return &RetryBudget{ratio: ratio, burst: float64(burst), tokens: float64(burst)}
}

// Deposit credits the budget for one first attempt.
func (b *RetryBudget) Deposit() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.tokens = math.Min(b.tokens+b.ratio, b.burst)
	b.mu.Unlock()
}

// Withdraw spends one token for a retry, reporting whether the retry is
// allowed. A denied withdrawal is counted but costs nothing.
func (b *RetryBudget) Withdraw() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		b.denied++
		return false
	}
	b.tokens--
	return true
}

// Denied reports how many retries the budget has refused.
func (b *RetryBudget) Denied() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.denied
}
