package runtime

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
)

// heldPrompt marks the LLM stage a gatedBackend holds.
const heldPrompt = "Hold this batch: is the request long?"

// heldStatement's only LLM stage is held by a gatedBackend.
var heldStatement = `SELECT ticket_id, LLM('` + heldPrompt + `', request) AS held FROM tickets`

// gatedBackend serves every batch on the simulator, except that a batch of
// the held stage blocks until release is closed. A statement whose batch
// is held is admitted and genuinely still running, so it could still join
// any open batch window: the batcher must keep those windows open.
type gatedBackend struct {
	backend.Backend
	entered chan struct{} // closed when the first held batch arrives
	release chan struct{}
	once    sync.Once
}

func newGatedBackend() *gatedBackend {
	return &gatedBackend{Backend: backend.NewSim(), entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedBackend) RunBatch(ctx context.Context, spec backend.BatchSpec) (backend.BatchResult, error) {
	if strings.Contains(spec.StageKey, heldPrompt) {
		g.once.Do(func() { close(g.entered) })
		<-g.release
	}
	return g.Backend.RunBatch(ctx, spec)
}

// holdWorker submits sql, whose first LLM stage is the held one, and
// returns once that stage's batch is held in the backend: from then on one
// worker runs a statement that is not parked. The returned release lets it
// finish; defer it after Close so it runs first.
func holdWorker(t *testing.T, rt *Runtime, gb *gatedBackend, sql string) (held *Handle, release func()) {
	t.Helper()
	held = rt.Submit(sql, Options{Client: "held"})
	select {
	case <-gb.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the held statement never reached the backend")
	}
	var once sync.Once
	return held, func() { once.Do(func() { close(gb.release) }) }
}

// closes sums the close-reason counters.
func closes(m Totals) int64 {
	return m.BatchClosesTimer + m.BatchClosesCap + m.BatchClosesIdle + m.BatchClosesPulled + m.BatchClosesShutdown
}

// TestLoneStatementClosesIdle: a statement nobody can join does not wait
// out its window. Under a 1-s window the only admitted statement's group
// closes as soon as it parks, and the close is counted as idle.
func TestLoneStatementClosesIdle(t *testing.T) {
	rt := New(newDB(12), Config{Workers: 2, BatchWindow: time.Second})
	defer rt.Close()
	if _, err := rt.Exec(dashboardStatements[0], Options{}); err != nil {
		t.Fatal(err)
	}
	m := rt.Metrics()
	if m.Batches != 1 || m.BatchClosesIdle != 1 || closes(m.Totals) != 1 {
		t.Errorf("batches %d, idle closes %d, all closes %d: want 1, 1, 1 (%+v)",
			m.Batches, m.BatchClosesIdle, closes(m.Totals), m.Totals)
	}
}

// TestBatchClassWaitsTenWindows pins the batch-class window at
// batchClassWindows times BatchWindow. A held statement keeps the window
// from closing as idle, so a lone statement's group closes on its timer:
// after 200 ms for a batch-class statement under a 20-ms window, after
// about 20 ms for an interactive one.
func TestBatchClassWaitsTenWindows(t *testing.T) {
	for _, tc := range []struct {
		class    Class
		min, max time.Duration
	}{
		{ClassBatch, 200 * time.Millisecond, 2 * time.Second},
		{ClassInteractive, 20 * time.Millisecond, 200 * time.Millisecond},
	} {
		t.Run(string(tc.class), func(t *testing.T) {
			gb := newGatedBackend()
			rt := New(newDB(12), Config{Workers: 2, BatchWindow: 20 * time.Millisecond, Backend: gb})
			defer rt.Close()
			held, release := holdWorker(t, rt, gb, heldStatement)
			defer release()

			start := time.Now()
			if _, err := rt.Exec(dashboardStatements[0], Options{Class: tc.class}); err != nil {
				t.Fatal(err)
			}
			if elapsed := time.Since(start); elapsed < tc.min || elapsed >= tc.max {
				t.Errorf("%s statement took %v, want [%v, %v)", tc.class, elapsed, tc.min, tc.max)
			}
			if m := rt.Metrics(); m.BatchClosesTimer != 1 || closes(m.Totals) != 1 {
				t.Errorf("timer closes %d, all closes %d: want 1, 1 (%+v)", m.BatchClosesTimer, closes(m.Totals), m.Totals)
			}
			release()
			if _, err := held.Wait(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWindowWaitsForRunningStatement: a group stays open while an admitted
// statement is still running, and coalesces with it once it arrives. B's
// first stage is held in the backend while A parks on the stage B reaches
// next; releasing B lets it join A's group, which then closes as idle —
// one coalesced run, and both relations equal to sequential execution.
func TestWindowWaitsForRunningStatement(t *testing.T) {
	db := newDB(24)
	// B holds first (its held projection precedes the shared one), then
	// needs the same LLM call A parks on, over other rows.
	stmtA := dashboardStatements[0]
	stmtB := `SELECT ticket_id, LLM('` + heldPrompt + `', request) AS held,
	 LLM('Did the response resolve the request?', request, response) AS resolved
	 FROM tickets WHERE region = 'amer'`
	want, _, _ := seqBaseline(t, db, []string{stmtA, stmtB})

	gb := newGatedBackend()
	rt := New(db, Config{Workers: 2, BatchWindow: time.Minute, Backend: gb})
	defer rt.Close()
	hB, release := holdWorker(t, rt, gb, stmtB)
	defer release()
	hA := rt.Submit(stmtA, Options{})
	// A is parked (or about to be) on a group that must not close: B is
	// running. Nothing but B's arrival can close it before the minute.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		rt.batcher.mu.Lock()
		parked := rt.batcher.parked
		rt.batcher.mu.Unlock()
		if parked == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("A never parked")
		}
	}
	if m := rt.Metrics(); m.Batches != 0 {
		t.Fatalf("%d batches ran while B's stage was held: A's window closed without waiting", m.Batches)
	}
	release()
	for i, h := range []*Handle{hA, hB} {
		got, err := h.Wait()
		if err != nil {
			t.Fatal(err)
		}
		sameRelation(t, []string{stmtA, stmtB}[i], want[i], got)
	}
	m := rt.Metrics()
	if m.CoalescedRuns != 1 {
		t.Errorf("coalesced runs = %d, want 1 (A's group and B's second stage)", m.CoalescedRuns)
	}
	if m.Batches != 2 || m.BatchClosesIdle != 2 || closes(m.Totals) != m.Batches {
		t.Errorf("batches %d, idle closes %d, all closes %d: want 2, 2, 2", m.Batches, m.BatchClosesIdle, closes(m.Totals))
	}
}

// TestCloseReasonsSumToBatches: every engine run is counted under exactly
// one close reason, across a concurrent workload that closes windows by
// timer, by a pulled horizon and because nobody was left to join.
func TestCloseReasonsSumToBatches(t *testing.T) {
	db := newDB(36)
	want, _, _ := seqBaseline(t, db, dashboardStatements)
	rt := New(db, Config{Workers: 3, BatchWindow: 5 * time.Millisecond})
	defer rt.Close()
	for round := 0; round < 3; round++ {
		handles := make([]*Handle, len(dashboardStatements))
		for i, sql := range dashboardStatements {
			class := ClassInteractive
			if i%2 == 0 {
				class = ClassBatch
			}
			// Batch-class openers buy the long window, interactive joiners
			// pull it in; later rounds are served partly from the cache.
			handles[i] = rt.Submit(sql, Options{Class: class})
		}
		for i, h := range handles {
			got, err := h.Wait()
			if err != nil {
				t.Fatal(err)
			}
			sameRelation(t, dashboardStatements[i], want[i], got)
		}
	}
	m := rt.Metrics()
	if m.Batches == 0 || closes(m.Totals) != m.Batches {
		t.Errorf("close reasons sum to %d, batches %d (%+v)", closes(m.Totals), m.Batches, m.Totals)
	}
}
