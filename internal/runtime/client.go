package runtime

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// ClientID identifies the tenant a statement runs on behalf of. It is the
// single identity type carried through the whole stack — /v1/sql's request
// envelope, the admission scheduler's per-client queues, quota buckets, and
// the per-client rows of Metrics — so no layer falls back to a stringly-typed
// name of its own. The empty ID is normalized to DefaultClient at admission.
type ClientID string

// DefaultClient is the identity statements run under when the caller names
// none: anonymous traffic shares one fair-queue flow and one metrics row
// instead of hiding from accounting.
const DefaultClient ClientID = "anon"

// orDefault normalizes the empty identity.
func (c ClientID) orDefault() ClientID {
	if c == "" {
		return DefaultClient
	}
	return c
}

// Class is a statement's service class: it selects the admission scheduler's
// weight and the micro-batcher's coalescing window.
type Class string

const (
	// ClassInteractive is latency-sensitive traffic (dashboards, operators):
	// high admission weight, short batch window — an interactive statement
	// joining an open batch window closes it early.
	ClassInteractive Class = "interactive"
	// ClassBatch is throughput traffic (analytics sweeps): low admission
	// weight, long batch window so calls coalesce more aggressively.
	ClassBatch Class = "batch"
)

// ParseClass resolves the wire form of a service class; "" means
// interactive (the conservative default: unlabeled traffic must not be
// penalized with batch-class latency).
func ParseClass(s string) (Class, error) {
	switch Class(s) {
	case "", ClassInteractive:
		return ClassInteractive, nil
	case ClassBatch:
		return ClassBatch, nil
	}
	return "", fmt.Errorf("unknown class %q: want %q or %q", s, ClassInteractive, ClassBatch)
}

// orDefault normalizes the zero Class.
func (c Class) orDefault() Class {
	if c == "" {
		return ClassInteractive
	}
	return c
}

// Quota bounds one client's resource draw as leaky token buckets of burst
// size, one for model calls and one for prompt tokens. Usage is post-paid: a
// statement is admitted while both buckets are non-negative and its actual
// calls/tokens are debited when it finishes, so a client that overdraws is
// locked out until the buckets refill rather than mid-statement. A zero rate
// leaves that dimension unlimited; the zero Quota disables limiting entirely.
type Quota struct {
	CallsPerSec  float64 // refills the call bucket
	TokensPerSec float64 // refills the prompt-token bucket
}

// Enabled reports whether the quota limits anything.
func (q Quota) Enabled() bool { return q.CallsPerSec > 0 || q.TokensPerSec > 0 }

// burst is a bucket's capacity: one second of refill, and at least one unit.
func burst(rate float64) float64 { return math.Max(1, rate) }

// QuotaError reports an admission rejected because the client's quota
// buckets are overdrawn. RetryAfter is how long until both buckets refill
// to zero; /v1/sql surfaces it as a 429 with a Retry-After header.
type QuotaError struct {
	Client     ClientID
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("runtime: client %q over quota, retry after %s", e.Client, e.RetryAfter)
}

// quotaBucket is one client's live quota state.
type quotaBucket struct {
	mu     sync.Mutex
	quota  Quota
	calls  float64   // guarded by mu
	tokens float64   // guarded by mu
	last   time.Time // guarded by mu
}

func newQuotaBucket(q Quota, now time.Time) *quotaBucket {
	return &quotaBucket{quota: q, calls: burst(q.CallsPerSec), tokens: burst(q.TokensPerSec), last: now}
}

// refillLocked advances the buckets to now.
//
//llmqlint:holds mu
func (b *quotaBucket) refillLocked(now time.Time) {
	dt := now.Sub(b.last).Seconds()
	if dt <= 0 {
		return
	}
	b.last = now
	b.calls = math.Min(burst(b.quota.CallsPerSec), b.calls+dt*b.quota.CallsPerSec)
	b.tokens = math.Min(burst(b.quota.TokensPerSec), b.tokens+dt*b.quota.TokensPerSec)
}

// admit decides whether a new statement may start now. On rejection it
// reports how long until both buckets are back to zero.
func (b *quotaBucket) admit(now time.Time) (time.Duration, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(now)
	if b.calls >= 0 && b.tokens >= 0 {
		return 0, true
	}
	var wait float64
	if b.calls < 0 && b.quota.CallsPerSec > 0 {
		wait = -b.calls / b.quota.CallsPerSec
	}
	if b.tokens < 0 && b.quota.TokensPerSec > 0 {
		wait = math.Max(wait, -b.tokens/b.quota.TokensPerSec)
	}
	retry := time.Duration(math.Ceil(wait*1000)) * time.Millisecond
	if retry <= 0 {
		retry = time.Millisecond
	}
	return retry, false
}

// debit charges a finished statement's actual usage. Buckets may go
// negative — that is the post-paid lockout admit enforces.
func (b *quotaBucket) debit(now time.Time, calls, tokens int64) {
	b.mu.Lock()
	b.refillLocked(now)
	if b.quota.CallsPerSec > 0 {
		b.calls -= float64(calls)
	}
	if b.quota.TokensPerSec > 0 {
		b.tokens -= float64(tokens)
	}
	b.mu.Unlock()
}

// stmtInfo rides in the statement's context from the worker down into
// RunStage, carrying identity for the batcher's window choice and
// accumulating the statement's own resource usage for quota debiting and
// per-client accounting. Stages of one statement run sequentially, so the
// counters need no synchronization; only the owning worker reads them back.
type stmtInfo struct {
	client ClientID
	class  Class
	calls  int64
	tokens int64
}

type stmtInfoKey struct{}

func withStmtInfo(ctx context.Context, si *stmtInfo) context.Context {
	return context.WithValue(ctx, stmtInfoKey{}, si)
}

// stmtInfoFrom recovers the statement info; nil when the stage runs outside
// a runtime worker (direct library use).
func stmtInfoFrom(ctx context.Context) *stmtInfo {
	si, _ := ctx.Value(stmtInfoKey{}).(*stmtInfo)
	return si
}

// classFrom is the batcher's view: which service class is asking.
func classFrom(ctx context.Context) Class {
	if si := stmtInfoFrom(ctx); si != nil {
		return si.class
	}
	return ClassInteractive
}

// clientCounters is one client's slice of the fleet accounting. Plain
// fields, deliberately unannotated: they are guarded by Runtime.clientMu —
// an OWNING-struct mutex the guardedby analyzer cannot name from here (it
// only checks sibling-field guards). Every access path goes through
// Runtime.clients, whose own `guarded by clientMu` annotation is what the
// analyzer enforces; reach these counters only via Runtime.clientLocked.
type clientCounters struct {
	statements      int64
	canceled        int64
	quotaRejections int64
	llmCalls        int64
	promptTokens    int64
	jctMicros       int64
	queueWaitMicros int64
}

// waitHist is a fixed-bucket latency histogram for admission-queue waits,
// atomically updated on the worker hot path.
type waitHist struct {
	count       atomic.Int64
	totalMicros atomic.Int64
	le1ms       atomic.Int64
	le10ms      atomic.Int64
	le100ms     atomic.Int64
	le1s        atomic.Int64
	over1s      atomic.Int64
}

func (h *waitHist) observe(d time.Duration) {
	h.count.Add(1)
	h.totalMicros.Add(d.Microseconds())
	switch {
	case d <= time.Millisecond:
		h.le1ms.Add(1)
	case d <= 10*time.Millisecond:
		h.le10ms.Add(1)
	case d <= 100*time.Millisecond:
		h.le100ms.Add(1)
	case d <= time.Second:
		h.le1s.Add(1)
	default:
		h.over1s.Add(1)
	}
}

func (h *waitHist) snapshot() WaitHistogram {
	return WaitHistogram{
		Count:       h.count.Load(),
		TotalMicros: h.totalMicros.Load(),
		Le1ms:       h.le1ms.Load(),
		Le10ms:      h.le10ms.Load(),
		Le100ms:     h.le100ms.Load(),
		Le1s:        h.le1s.Load(),
		Over1s:      h.over1s.Load(),
	}
}
