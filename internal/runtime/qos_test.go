package runtime

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// qosStatement builds a distinct-prompt statement: every (who, i) pair asks
// the oracle a different question, so no two statements share result-cache
// keys and the total model-call count of a workload is exactly the sum of
// its statements' rows — an order-invariant figure the FIFO-vs-fair A/B
// below can compare across admission disciplines.
func qosStatement(who string, i int) string {
	return fmt.Sprintf(
		`SELECT ticket_id, LLM('Probe %s-%d: is this request urgent?', request) AS a FROM tickets`,
		who, i)
}

func p99(latencies []time.Duration) time.Duration {
	s := append([]time.Duration(nil), latencies...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := (len(s)*99 + 99) / 100
	if idx > len(s) {
		idx = len(s)
	}
	return s[idx-1]
}

// runMixedWorkload replays the acceptance workload on a fresh runtime: N
// batch clients flood the admission queue with distinct statements, then one
// interactive client runs its statements sequentially against that backlog.
// It returns the interactive client's per-statement latencies and the
// fleet's total model calls. With fifo set, every statement is submitted as
// one (client, class) flow, which DRR serves in arrival order: the
// first-come-first-served baseline.
func runMixedWorkload(t *testing.T, fifo bool) (interactive []time.Duration, llmCalls int64) {
	t.Helper()
	const (
		batchClients = 4
		batchStmts   = 80
		interStmts   = 6
		warmStmts    = 2
	)
	db := newDB(40)
	rt := New(db, Config{
		Workers:     1, // admission order is the whole story
		queueDepth:  512,
		BatchWindow: -1, // no coalescing: per-statement time stays tight
	})
	defer rt.Close()
	opts := func(client ClientID, class Class) Options {
		if fifo {
			return Options{Client: "fifo", Class: ClassBatch}
		}
		return Options{Client: client, Class: class}
	}

	// Pay first-run costs (tokenizer, prompt cache, solver) before the
	// measured phase, identically in both modes: under FIFO the backlog
	// would otherwise absorb warmup before the interactive client runs,
	// while under fair admission the interactive client would pay it inside
	// its own measured latency — a confounder, not an admission effect.
	for i := 0; i < warmStmts; i++ {
		if _, err := rt.Exec(qosStatement("warm", i), opts("warm", ClassBatch)); err != nil {
			t.Fatalf("warmup statement %d: %v", i, err)
		}
	}

	var batchHandles []*Handle
	for c := 0; c < batchClients; c++ {
		for i := 0; i < batchStmts; i++ {
			batchHandles = append(batchHandles, rt.Submit(
				qosStatement(fmt.Sprintf("bulk%d", c), i),
				opts(ClientID(fmt.Sprintf("bulk%d", c)), ClassBatch),
			))
		}
	}

	for i := 0; i < interStmts; i++ {
		start := time.Now()
		if _, err := rt.Exec(qosStatement("dash", i), opts("dash", ClassInteractive)); err != nil {
			t.Fatalf("interactive statement %d: %v", i, err)
		}
		interactive = append(interactive, time.Since(start))
	}
	for i, h := range batchHandles {
		if _, err := h.Wait(); err != nil {
			t.Fatalf("batch statement %d: %v", i, err)
		}
	}
	m := rt.Metrics()
	if got, want := m.StatementsDone, int64(batchClients*batchStmts+interStmts+warmStmts); got != want {
		t.Fatalf("statements done = %d, want %d", got, want)
	}
	return interactive, m.LLMCalls
}

// TestQoSInteractiveBeatsFIFO is the acceptance A/B (the PR 3
// TestConcurrentBeatsSequential of this PR): under a mixed workload — one
// interactive client against a deep batch backlog over the same relation —
// weighted-fair admission must cut the interactive client's p99 latency
// sharply versus FIFO, without changing total model calls (fairness
// reorders work, it does not add any).
func TestQoSInteractiveBeatsFIFO(t *testing.T) {
	fifoLat, fifoCalls := runMixedWorkload(t, true)
	fairLat, fairCalls := runMixedWorkload(t, false)

	if fifoCalls != fairCalls {
		t.Errorf("total model calls changed: fifo %d, fair %d (fairness must only reorder)", fifoCalls, fairCalls)
	}
	fifoP99, fairP99 := p99(fifoLat), p99(fairLat)
	t.Logf("interactive p99: fifo %v, fair %v (%0.1fx)", fifoP99, fairP99, float64(fifoP99)/float64(fairP99))
	if fairP99*2 >= fifoP99 {
		t.Errorf("interactive p99 under fair admission = %v, want < half of FIFO's %v", fairP99, fifoP99)
	}
}

// TestQoSStarvationFreedom is the fair scheduler's property test: with
// unit-cost statements and every quantum >= 1, DRR serves each backlogged
// flow at least once per ring pass, so the gap between consecutive pops of
// one flow is bounded by the sum of all flows' quantums — no client can be
// starved no matter how deep any other client's backlog is. The test drives
// randomized interleavings straight against the queue and checks the bound
// (and within-flow FIFO order) on every pop sequence.
func TestQoSStarvationFreedom(t *testing.T) {
	const (
		interactiveQuantum = 4
		batchQuantum       = 1
	)
	flows := []flowKey{
		{client: "dash", class: ClassInteractive},
		{client: "bulk0", class: ClassBatch},
		{client: "bulk1", class: ClassBatch},
		{client: "bulk0", class: ClassInteractive}, // same tenant, distinct flow
	}
	quantum := map[flowKey]int{}
	for _, k := range flows {
		q := interactiveQuantum
		if k.class == ClassBatch {
			q = batchQuantum
		}
		quantum[k] = q
	}
	sumQuantums := 0
	for _, q := range quantum {
		sumQuantums += q
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		counts := map[flowKey]int{}
		var jobs []*job
		for _, k := range flows {
			n := 1 + rng.Intn(60)
			counts[k] = n
			for i := 0; i < n; i++ {
				jobs = append(jobs, &job{client: k.client, class: k.class, enqueuedAt: time.Unix(int64(i), 0)})
			}
		}
		rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })

		q := newFairQueue(len(jobs), interactiveQuantum, batchQuantum)
		seq := map[flowKey][]int{} // per-flow push sequence numbers, in push order
		for _, j := range jobs {
			k := flowKey{client: j.client, class: j.class}
			j.enqueuedAt = time.Unix(0, int64(len(seq[k])))
			seq[k] = append(seq[k], len(seq[k]))
			if err := q.push(context.Background(), j); err != nil {
				t.Fatal(err)
			}
		}

		lastPop := map[flowKey]int{}
		popped := map[flowKey]int{}
		for pos := 0; pos < len(jobs); pos++ {
			j, ok := q.pop()
			if !ok {
				t.Fatalf("trial %d: queue closed after %d pops, want %d", trial, pos, len(jobs))
			}
			k := flowKey{client: j.client, class: j.class}
			if want := int64(popped[k]); j.enqueuedAt.UnixNano() != want {
				t.Fatalf("trial %d: flow %v popped out of FIFO order: got seq %d, want %d",
					trial, k, j.enqueuedAt.UnixNano(), want)
			}
			if prev, seen := lastPop[k]; seen && popped[k] < counts[k] {
				if gap := pos - prev; gap > sumQuantums {
					t.Fatalf("trial %d: flow %v waited %d pops between serves, bound %d",
						trial, k, gap, sumQuantums)
				}
			}
			lastPop[k] = pos
			popped[k]++
		}
		q.close()
		if _, ok := q.pop(); ok {
			t.Fatalf("trial %d: pop succeeded on closed empty queue", trial)
		}
	}
}

// TestQuotaBucket pins the post-paid token-bucket arithmetic with synthetic
// clocks: admit while non-negative, debit actual usage afterwards (possibly
// overdrawing), lock out until refilled, and report the exact retry horizon.
func TestQuotaBucket(t *testing.T) {
	t0 := time.Unix(1000, 0)
	b := newQuotaBucket(Quota{CallsPerSec: 2}, t0) // holds max(1, 2) = 2 calls

	if _, ok := b.admit(t0); !ok {
		t.Fatal("fresh bucket rejected")
	}
	b.debit(t0, 8, 0) // post-paid: usage may overdraw to -6
	retry, ok := b.admit(t0)
	if ok {
		t.Fatal("overdrawn bucket admitted")
	}
	if want := 3 * time.Second; retry != want {
		t.Errorf("retry = %v, want %v (-6 calls at 2/s)", retry, want)
	}
	if _, ok := b.admit(t0.Add(2 * time.Second)); ok {
		t.Error("admitted while still overdrawn")
	}
	if _, ok := b.admit(t0.Add(3 * time.Second)); !ok {
		t.Error("rejected after full refill to zero")
	}

	// Token dimension limits independently, and the longer deficit wins.
	b2 := newQuotaBucket(Quota{CallsPerSec: 1, TokensPerSec: 10}, t0)
	b2.debit(t0, 2, 50) // calls -1 (retry 1s), tokens -40 (retry 4s)
	retry, ok = b2.admit(t0)
	if ok || retry != 4*time.Second {
		t.Errorf("retry = %v ok=%v, want 4s rejection (token deficit dominates)", retry, ok)
	}

	// A zero-rate dimension is unlimited: debits to it don't lock out.
	b3 := newQuotaBucket(Quota{CallsPerSec: 100}, t0)
	b3.debit(t0, 0, 1_000_000)
	if _, ok := b3.admit(t0); !ok {
		t.Error("unlimited token dimension caused a rejection")
	}
}

// TestQuotaRejectsOverdrawnClient covers the runtime-level 429 path: a
// client that overdraws its quota gets a *QuotaError with a retry horizon on
// its NEXT admission, other clients' buckets are untouched, and both fleet
// and per-client rejection counters advance.
func TestQuotaRejectsOverdrawnClient(t *testing.T) {
	db := newDB(12)
	rt := New(db, Config{
		Workers:      2,
		DefaultQuota: Quota{CallsPerSec: 0.001}, // a one-call bucket
	})
	defer rt.Close()

	if _, err := rt.Exec(qosStatement("q", 0), Options{Client: "miser"}); err != nil {
		t.Fatalf("first statement within burst: %v", err)
	}
	_, err := rt.Exec(qosStatement("q", 1), Options{Client: "miser"})
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("over-quota error = %v, want *QuotaError", err)
	}
	if qe.Client != "miser" || qe.RetryAfter <= 0 {
		t.Errorf("quota error = %+v, want miser with positive retry", qe)
	}
	if _, err := rt.Exec(qosStatement("q", 2), Options{Client: "spender"}); err != nil {
		t.Errorf("unthrottled client rejected: %v", err)
	}
	m := rt.Metrics()
	if m.QuotaRejections != 1 || m.Clients["miser"].QuotaRejections != 1 {
		t.Errorf("rejection accounting = %d fleet / %d client, want 1/1",
			m.QuotaRejections, m.Clients["miser"].QuotaRejections)
	}
	if m.Clients["miser"].LLMCalls == 0 || m.Clients["spender"].LLMCalls == 0 {
		t.Errorf("per-client call accounting missing: %+v", m.Clients)
	}
}

// TestQoSInteractiveClosesWindowEarly: a batch-class statement opens a long
// coalescing window; an interactive statement with the same stage
// fingerprint joins and must pull the close forward to its own short
// horizon — both finish far before the batch window would have fired, the
// run still coalesces, and the shortening is counted.
func TestQoSInteractiveClosesWindowEarly(t *testing.T) {
	db := newDB(24)
	// A third statement is held running in the backend, so the batch-class
	// window stays open until the interactive joiner pulls it in.
	gb := newGatedBackend()
	rt := New(db, Config{
		Workers:     3,
		BatchWindow: 200 * time.Millisecond, // batch-class: 2 s
		Backend:     gb,
	})
	defer rt.Close()
	held, release := holdWorker(t, rt, gb, heldStatement)
	defer release()

	start := time.Now()
	// dashboardStatements[0] and [1] share the LLM stage fingerprint (same
	// prompt) over disjoint plain filters — the coalescing pair.
	hBatch := rt.Submit(dashboardStatements[0], Options{Client: "bulk", Class: ClassBatch})
	time.Sleep(150 * time.Millisecond) // the batch window is open and parked
	hInter := rt.Submit(dashboardStatements[1], Options{Client: "dash", Class: ClassInteractive})
	if _, err := hInter.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := hBatch.Wait(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed >= 1500*time.Millisecond {
		t.Errorf("mixed pair took %v: the interactive joiner did not close the batch window early", elapsed)
	}
	m := rt.Metrics()
	if m.BatchWindowsShortened == 0 {
		t.Error("no batch window recorded as shortened")
	}
	if m.CoalescedRuns == 0 {
		t.Error("the pair did not coalesce into one run")
	}
	if m.BatchClosesPulled != 1 {
		t.Errorf("pulled closes = %d, want 1", m.BatchClosesPulled)
	}
	release()
	if _, err := held.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestQoSDeadlineClosesWindowEarly: a statement whose context deadline is
// tighter than its class's batch window must not be parked past it — the
// batcher clamps the window inside the deadline and the statement finishes
// in time instead of dying of DeadlineExceeded under its own coalescing
// delay.
func TestQoSDeadlineClosesWindowEarly(t *testing.T) {
	db := newDB(18)
	// A second statement is held running in the backend, so the window
	// cannot close as idle: only the deadline clamp can close it early.
	gb := newGatedBackend()
	rt := New(db, Config{Workers: 2, BatchWindow: 2 * time.Second, Backend: gb})
	defer rt.Close()
	held, release := holdWorker(t, rt, gb, heldStatement)
	defer release()

	ctx, cancel := context.WithTimeout(context.Background(), 700*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := rt.ExecContext(ctx, dashboardStatements[0], Options{})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("deadlined statement failed after %v: %v (window not clamped?)", elapsed, err)
	}
	if elapsed >= 1500*time.Millisecond {
		t.Errorf("statement took %v with a 700ms deadline and 2s window", elapsed)
	}
	if m := rt.Metrics(); m.BatchClosesPulled != 1 || m.BatchClosesIdle != 0 || closes(m.Totals) != 1 {
		t.Errorf("pulled closes %d, idle closes %d, all closes %d: want 1, 0, 1 (%+v)",
			m.BatchClosesPulled, m.BatchClosesIdle, closes(m.Totals), m.Totals)
	}
	release()
	if _, err := held.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestWaitContext: abandoning a future with WaitContext returns the caller
// promptly, does not cancel the statement, and leaves the result claimable
// by a later Wait.
func TestWaitContext(t *testing.T) {
	db := newDB(12)
	// A second statement is held running in the backend, so the first's
	// window stays open for its full 300 ms.
	gb := newGatedBackend()
	rt := New(db, Config{Workers: 2, BatchWindow: 300 * time.Millisecond, Backend: gb})
	defer rt.Close()
	held, release := holdWorker(t, rt, gb, heldStatement)
	defer release()

	h := rt.Submit(dashboardStatements[0], Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := h.WaitContext(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoned wait returned %v, want context.DeadlineExceeded", err)
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatalf("statement was canceled by an abandoned wait: %v", err)
	}
	if res == nil || len(res.Rows) == 0 {
		t.Fatal("no result after abandoned wait")
	}
	if m := rt.Metrics(); m.StatementsCanceled != 0 {
		t.Errorf("statements canceled = %d, want 0 (WaitContext must not cancel)", m.StatementsCanceled)
	}
	release()
	if _, err := held.Wait(); err != nil {
		t.Fatal(err)
	}
}
