package obs

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"
)

// TestNilSpanIsFree pins the zero-cost-when-off contract: every Span method
// no-ops on a nil receiver and With refuses to allocate a context for a nil
// span, so an untraced statement never pays for the recorder.
func TestNilSpanIsFree(t *testing.T) {
	var s *Span
	if c := s.Child("x"); c != nil {
		t.Errorf("nil.Child = %v, want nil", c)
	}
	if c := s.ChildAt("x", time.Now(), time.Second); c != nil {
		t.Errorf("nil.ChildAt = %v, want nil", c)
	}
	s.Adopt(NewSpan("orphan")) // must not panic
	s.Adopt(nil)
	s.Set("k", "v")
	s.Charge(1, 2, 3)
	s.End()
	if tr := s.Tree(time.Now()); tr != nil {
		t.Errorf("nil.Tree = %v, want nil", tr)
	}

	ctx := context.Background()
	if got := With(ctx, nil); got != ctx {
		t.Error("With(ctx, nil) allocated a new context")
	}
	if sp := FromContext(ctx); sp != nil {
		t.Errorf("FromContext(plain ctx) = %v, want nil", sp)
	}
	live := NewSpan("live")
	if sp := FromContext(With(ctx, live)); sp != live {
		t.Error("FromContext did not return the span With stored")
	}
}

// TestSpanTreeTotalsConserve builds a tree charging at several depths —
// including a shared, adopted span, the coalesced-batch shape — and requires
// Totals to sum every charge exactly once.
func TestSpanTreeTotalsConserve(t *testing.T) {
	base := time.Now()
	root := NewSpanAt("statement", base)
	stage := root.Child("stage:s0")
	stage.Charge(3, 120, 1.5)

	batch := NewSpan("batch") // shared span, adopted not parented
	stage.Adopt(batch)
	backend := batch.Child("backend")
	backend.Charge(2, 80, 0.5)
	backend.End()
	batch.End()
	stage.End()

	prep := root.ChildAt("prepare", base, 5*time.Millisecond)
	prep.Set("planCache", "miss")
	root.End()

	tree := root.Tree(base)
	if tree == nil {
		t.Fatal("Tree returned nil for a live span")
	}
	calls, tokens, jct := tree.Totals()
	if calls != 5 || tokens != 200 || math.Abs(jct-2.0) > 1e-12 {
		t.Errorf("Totals = (%d, %d, %g), want (5, 200, 2)", calls, tokens, jct)
	}

	if got := tree.Find("batch"); got == nil {
		t.Error("Find could not locate the adopted batch span")
	}
	p := tree.Find("prepare")
	if p == nil {
		t.Fatal("Find could not locate the retroactive prepare span")
	}
	if math.Abs(p.DurationMs-5) > 1e-9 {
		t.Errorf("prepare DurationMs = %g, want 5", p.DurationMs)
	}
	if p.Attrs["planCache"] != "miss" {
		t.Errorf("prepare attrs = %v", p.Attrs)
	}

	var order []string
	tree.Walk(func(n *SpanTree) { order = append(order, n.Name) })
	if order[0] != "statement" {
		t.Errorf("Walk visited %v, want the root first", order)
	}
}

// TestRingEvictsFIFO pins the bounded trace buffer: at capacity every Add
// drops the oldest trace, and Snapshot lists newest first.
func TestRingEvictsFIFO(t *testing.T) {
	r := NewRing(3)
	for i := 1; i <= 5; i++ {
		r.Add(&Trace{SQL: fmt.Sprintf("q%d", i)})
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	got := r.Snapshot()
	want := []string{"q5", "q4", "q3"}
	for i, tr := range got {
		if tr.SQL != want[i] {
			t.Errorf("Snapshot[%d] = %s, want %s", i, tr.SQL, want[i])
		}
	}

	one := NewRing(0)
	one.Add(&Trace{SQL: "a"})
	one.Add(&Trace{SQL: "b"})
	if snap := one.Snapshot(); len(snap) != 1 || snap[0].SQL != "b" {
		t.Errorf("NewRing(0) did not clamp capacity to 1: retained %d traces", len(snap))
	}
	var nilRing *Ring
	nilRing.Add(&Trace{})
	if nilRing.Snapshot() != nil || nilRing.Len() != 0 {
		t.Error("nil ring is not inert")
	}
	r.Add(nil) // ignored, not stored
	if r.Len() != 3 {
		t.Error("nil trace was retained")
	}
}

// TestRollupsAggregate pins the per-StageKey statistics: selectivity is
// learned only from filter-consumed executions, the cache hit rate counts
// inflight joins as lookups, and the store is bounded.
func TestRollupsAggregate(t *testing.T) {
	r := NewRollups(2)
	r.Observe(StageObservation{StageKey: "A", Name: "s0", Dataset: "tickets",
		Rows: 10, RowsOut: 4, ModelCalls: 10, PromptTokens: 100, MatchedTokens: 40,
		JCTSeconds: 2, SolverSeconds: 0.1})
	// Projection execution: outputs never fed a prune, must not skew selectivity.
	r.Observe(StageObservation{StageKey: "A", Name: "s0", Dataset: "tickets",
		Rows: 10, RowsOut: -1, ModelCalls: 10, PromptTokens: 100, MatchedTokens: 60,
		JCTSeconds: 4, SolverSeconds: 0.1})
	r.ObserveCache("A", 6, 2, 2, 1)

	snap := r.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d keys, want 1", len(snap))
	}
	var a StageRollup
	for _, v := range snap {
		a = v
	}
	if a.Name != "s0" || a.Count != 2 || a.Rows != 20 || a.LLMCalls != 20 {
		t.Errorf("rollup = %+v", a)
	}
	if math.Abs(a.Selectivity-0.4) > 1e-12 {
		t.Errorf("selectivity = %g, want 0.4 (only the filter-consumed execution counts)", a.Selectivity)
	}
	if math.Abs(a.MeanJCTSeconds-3) > 1e-12 {
		t.Errorf("mean JCT = %g, want 3", a.MeanJCTSeconds)
	}
	if math.Abs(a.CacheHitRate-0.6) > 1e-12 {
		t.Errorf("cache hit rate = %g, want 6/(6+2+2)", a.CacheHitRate)
	}
	if a.RowsDeduped != 1 {
		t.Errorf("rowsDeduped = %d, want 1", a.RowsDeduped)
	}

	// Bounded: a second key fits, a third evicts the least recently
	// observed (A).
	r.Observe(StageObservation{StageKey: "B", Name: "s1", Dataset: "", Rows: 1, RowsOut: -1,
		ModelCalls: 1, PromptTokens: 1, MatchedTokens: 0, JCTSeconds: 1, SolverSeconds: 0})
	r.Observe(StageObservation{StageKey: "C", Name: "s2", Dataset: "", Rows: 1, RowsOut: -1,
		ModelCalls: 1, PromptTokens: 1, MatchedTokens: 0, JCTSeconds: 1, SolverSeconds: 0})
	snap = r.Snapshot()
	if len(snap) != 2 {
		t.Errorf("snapshot has %d keys after overflow, want 2 (bounded)", len(snap))
	}
	for _, v := range snap {
		if v.Name == "s0" {
			t.Errorf("least recently observed key survived the overflow: %+v", v)
		}
	}

	// A stage never observed for execution still gets a rollup from cache
	// outcomes alone: selectivity stays at the -1 sentinel.
	r2 := NewRollups(4)
	r2.ObserveCache("X", 3, 0, 0, 0)
	for _, v := range r2.Snapshot() {
		if v.Selectivity != -1 {
			t.Errorf("unobserved selectivity = %g, want -1", v.Selectivity)
		}
		if v.CacheHitRate != 1 {
			t.Errorf("cache hit rate = %g, want 1", v.CacheHitRate)
		}
	}
}

// TestRollupsEvictLeastRecentlyObserved pins the store's behaviour under
// ad-hoc traffic: one-shot keys past the bound age out instead of freezing
// the store, so a recurring stage that first appears afterwards is learned
// with its full count, and a key that keeps being observed is never the
// victim.
func TestRollupsEvictLeastRecentlyObserved(t *testing.T) {
	const limit = 512
	r := NewRollups(limit)
	observe := func(key, name string) {
		r.Observe(StageObservation{StageKey: key, Name: name, Rows: 1, RowsOut: -1,
			ModelCalls: 1, PromptTokens: 1, MatchedTokens: 0, JCTSeconds: 1, SolverSeconds: 0})
		r.ObserveCache(key, 0, 1, 0, 0)
	}
	for i := 0; i < 600; i++ {
		observe(fmt.Sprintf("one-shot-%d", i), "adhoc")
		if i%100 == 0 {
			observe("early-recurring", "early")
		}
	}
	const recurrences = 7
	for i := 0; i < recurrences; i++ {
		observe("late-recurring", "late")
		observe(fmt.Sprintf("interleaved-%d", i), "adhoc")
	}
	snap := r.Snapshot()
	if len(snap) != limit {
		t.Fatalf("snapshot has %d keys, want the bound %d", len(snap), limit)
	}
	counts := map[string]int64{}
	for id, v := range snap {
		if id == "" {
			t.Fatalf("rollup %+v has no id", v)
		}
		if v.Name != "adhoc" {
			counts[v.Name] = v.Count
		}
		if v.CacheMisses != v.Count {
			t.Errorf("rollup %+v: cache outcomes and executions diverged", v)
		}
	}
	if counts["late"] != recurrences {
		t.Errorf("late recurring key count = %d, want %d", counts["late"], recurrences)
	}
	if counts["early"] != 6 {
		t.Errorf("early recurring key count = %d, want 6 (never evicted)", counts["early"])
	}
}
