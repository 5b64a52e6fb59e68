package obs

import (
	"slices"
	"sync"
	"time"

	"repro/internal/stats"
)

// Trace is one completed statement's identity plus rendered span tree: the
// unit stored in the trace ring, returned by Handle.Trace, and served by
// GET /v1/traces and options.trace on /v1/sql.
type Trace struct {
	SQL         string    `json:"sql"`
	Client      string    `json:"client"`
	Class       string    `json:"class"`
	Start       time.Time `json:"start"`
	WallSeconds float64   `json:"wallSeconds"`
	Slow        bool      `json:"slow,omitempty"`
	Error       string    `json:"error,omitempty"`
	Spans       *SpanTree `json:"spans"`
}

// Ring is the bounded FIFO buffer behind GET /v1/traces: once full, every
// Add evicts the oldest retained trace.
type Ring struct {
	mu  sync.Mutex
	buf stats.Window[*Trace] // guarded by mu
}

// NewRing returns a ring retaining up to capacity traces (minimum 1).
func NewRing(capacity int) *Ring {
	return &Ring{buf: stats.NewWindow[*Trace](capacity)}
}

// Add retains t, evicting the oldest trace when the ring is full. Nil
// receivers and nil traces are ignored.
func (r *Ring) Add(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	r.buf.Add(t)
	r.mu.Unlock()
}

// Snapshot returns the retained traces, newest first.
func (r *Ring) Snapshot() []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.AppendSeq(make([]*Trace, 0, r.buf.Len()), r.buf.All())
}

// Len reports how many traces are retained.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.Len()
}
