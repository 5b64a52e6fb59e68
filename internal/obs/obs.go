// Package obs is the serving runtime's observability kit: a
// context-propagated, allocation-light span recorder (EXPLAIN ANALYZE for
// LLM statements), a bounded ring of recent and slow statement traces, and
// per-StageKey rollups of observed latency/selectivity — the seed of the
// learned-optimization feedback store (ROADMAP item 5).
//
// Every Span method is nil-safe: when tracing is off no recorder exists,
// contexts carry no span, and every call — Child, Set, Charge, End — is a
// no-op on the nil receiver without allocating. That nil fast path is the
// zero-cost-when-off contract BenchmarkTracingOff pins.
//
// Charged accounting is deliberately separate from descriptive attributes:
// a span's Charge counters are summed by SpanTree.Totals and must conserve
// — the sum over one statement's tree equals the statement's charged model
// calls, prompt tokens, and virtual JCT. Shared spans (a coalesced batch
// adopted into several members' trees) therefore carry charges of zero and
// describe the whole run in attributes only; each member charges its own
// proportional share on its own stage span.
package obs

import (
	"context"
	"sync"
	"time"
)

// Span is one timed node of a statement's trace tree. The name and start
// time are fixed at creation; everything else is mutated behind the mutex
// so concurrent annotators (sharded backends fan out goroutines) are safe.
type Span struct {
	name  string
	start time.Time

	mu           sync.Mutex
	end          time.Time // guarded by mu; zero while the span is open
	attrs        []attr    // guarded by mu
	children     []*Span   // guarded by mu
	calls        int64     // guarded by mu; charged model calls (conserved)
	promptTokens int64     // guarded by mu; charged prompt tokens (conserved)
	jctSeconds   float64   // guarded by mu; charged virtual serving seconds (conserved)
}

// attr is one ordered key/value annotation; duplicate keys keep the last
// value at render time.
type attr struct {
	key string
	val any
}

// NewSpan starts a span now.
func NewSpan(name string) *Span {
	return NewSpanAt(name, time.Now())
}

// NewSpanAt starts a span with an explicit start time (for events observed
// after the fact, like queue admission).
func NewSpanAt(name string, start time.Time) *Span {
	return &Span{name: name, start: start}
}

// Child starts a new open child span. Child of a nil span is nil, so an
// untraced call path costs nothing.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := NewSpan(name)
	s.adopt(c)
	return c
}

// ChildAt records an already-completed child with explicit timing — used
// for phases measured before the recorder existed (queue wait, prepare).
func (s *Span) ChildAt(name string, start time.Time, d time.Duration) *Span {
	if s == nil {
		return nil
	}
	c := NewSpanAt(name, start)
	c.mu.Lock() // uncontended: c is not shared yet
	c.end = start.Add(d)
	c.mu.Unlock()
	s.adopt(c)
	return c
}

// Adopt attaches an existing span (possibly shared with other trees, like a
// coalesced batch's span) as a child.
func (s *Span) Adopt(c *Span) {
	if s == nil || c == nil {
		return
	}
	s.adopt(c)
}

func (s *Span) adopt(c *Span) {
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
}

// Set records a descriptive attribute. Values must be JSON-marshalable
// (strings, numbers, bools).
func (s *Span) Set(key string, val any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attr{key: key, val: val})
	s.mu.Unlock()
}

// Charge adds to the span's conserved accounting: model calls, prompt
// tokens, and virtual serving seconds attributed to this span. The sum of
// charges over a statement's tree must equal the statement's charged
// totals — callers charge exactly where the runtime's own accounting does.
func (s *Span) Charge(calls, promptTokens int64, jctSeconds float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.calls += calls
	s.promptTokens += promptTokens
	s.jctSeconds += jctSeconds
	s.mu.Unlock()
}

// End closes the span now; later Ends are ignored.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// Tree renders the span and its descendants with offsets relative to base
// (the trace root's start), so a shared span renders correctly inside any
// adopting tree. Open spans render with a zero duration.
func (s *Span) Tree(base time.Time) *SpanTree {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	t := &SpanTree{
		Name:         s.name,
		StartMs:      durMs(s.start.Sub(base)),
		DurationMs:   0,
		Calls:        s.calls,
		PromptTokens: s.promptTokens,
		JCTSeconds:   s.jctSeconds,
	}
	if !s.end.IsZero() {
		t.DurationMs = durMs(s.end.Sub(s.start))
	}
	if len(s.attrs) > 0 {
		t.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			t.Attrs[a.key] = a.val
		}
	}
	kids := make([]*Span, len(s.children))
	copy(kids, s.children)
	s.mu.Unlock()
	for _, c := range kids {
		t.Children = append(t.Children, c.Tree(base))
	}
	return t
}

func durMs(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// SpanTree is the rendered wire form of a span: what /v1/sql returns under
// options.trace and what /v1/traces serves.
//
//llmqlint:accounting
type SpanTree struct {
	Name         string         `json:"name"`
	StartMs      float64        `json:"startMs"`
	DurationMs   float64        `json:"durationMs"`
	Calls        int64          `json:"calls,omitempty"`
	PromptTokens int64          `json:"promptTokens,omitempty"`
	JCTSeconds   float64        `json:"jctSeconds,omitempty"`
	Attrs        map[string]any `json:"attrs,omitempty"`
	Children     []*SpanTree    `json:"children,omitempty"`
}

// Totals sums the charged accounting over the tree — the conservation
// check: for a completed statement these equal its charged model calls,
// prompt tokens, and virtual JCT.
//
//llmqlint:api llmq.TraceSpan; the obs, runtime and server trace tests check conservation
func (t *SpanTree) Totals() (calls, promptTokens int64, jctSeconds float64) {
	if t == nil {
		return 0, 0, 0
	}
	calls, promptTokens, jctSeconds = t.Calls, t.PromptTokens, t.JCTSeconds
	for _, c := range t.Children {
		cc, cp, cj := c.Totals()
		calls += cc
		promptTokens += cp
		jctSeconds += cj
	}
	return calls, promptTokens, jctSeconds
}

// Find returns the first span (depth-first) with the exact name, or nil.
//
//llmqlint:api llmq.TraceSpan; the runtime trace tests look spans up by name
func (t *SpanTree) Find(name string) *SpanTree {
	var found *SpanTree
	t.Walk(func(n *SpanTree) {
		if found == nil && n.Name == name {
			found = n
		}
	})
	return found
}

// Walk visits the tree depth-first, parents before children.
func (t *SpanTree) Walk(fn func(*SpanTree)) {
	if t == nil {
		return
	}
	fn(t)
	for _, c := range t.Children {
		c.Walk(fn)
	}
}

// ctxKey carries the active span through a statement's context.
type ctxKey struct{}

// With returns ctx carrying sp as the active span. With a nil span it
// returns ctx unchanged, so untraced statements never pay a context
// allocation.
func With(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// FromContext returns the active span, or nil when tracing is off — every
// Span method no-ops on nil, so callers never need to check.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}
