package runtime

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/sqlfront"
)

// TestCancelSurvivorCompletes is the inflight-poisoning regression test:
// two identical statements run concurrently, the first (which owns every
// inflight-dedup entry) is canceled while parked in the batch window, and
// the second — which subscribed to the first's entries — must still
// complete with the correct relation and coherent accounting. The canceled
// owner's result-cache reservations must be settled, not leaked: a third
// run afterwards is served entirely from cache.
func TestCancelSurvivorCompletes(t *testing.T) {
	db := newDB(24)
	sql := dashboardStatements[0]
	solo, err := db.Exec(sql, sqlfront.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}

	// A third statement is held running in the backend, so A's window
	// stays open: someone who could still join it is running.
	gb := newGatedBackend()
	rt := New(db, Config{Workers: 3, BatchWindow: 800 * time.Millisecond, Backend: gb})
	defer rt.Close()
	held, release := holdWorker(t, rt, gb, heldStatement)
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	hA := rt.SubmitContext(ctx, sql, Options{})
	time.Sleep(100 * time.Millisecond) // A classifies rows, owns them, parks in the window
	hB := rt.SubmitContext(context.Background(), sql, Options{})
	time.Sleep(100 * time.Millisecond) // B subscribes to A's inflight entries
	cancel()

	if _, errA := hA.Wait(); !errors.Is(errA, context.Canceled) {
		t.Fatalf("canceled statement returned %v, want context.Canceled", errA)
	}
	resB, errB := hB.Wait()
	if errB != nil {
		t.Fatalf("survivor failed: %v", errB)
	}
	sameRelation(t, sql, solo, resB)
	if resB.LLMCalls != 0 {
		t.Errorf("survivor reported %d model calls, want 0 (it only subscribed)", resB.LLMCalls)
	}

	m := rt.Metrics()
	if m.StatementsCanceled != 1 {
		t.Errorf("statements canceled = %d, want 1", m.StatementsCanceled)
	}
	if m.StatementsFailed != 0 {
		t.Errorf("statements failed = %d, want 0 (cancellation is not failure)", m.StatementsFailed)
	}
	if m.InflightDeduped == 0 {
		t.Error("survivor never subscribed; the test raced its setup")
	}
	if m.AbandonedResolved == 0 {
		t.Error("no abandoned reservations resolved; the detached resolver never ran")
	}

	// The canceled statement's reservations were committed when its batch
	// landed: a rerun must be pure cache hits, no model calls, same rows.
	resC, errC := rt.Exec(sql, Options{})
	if errC != nil {
		t.Fatal(errC)
	}
	sameRelation(t, sql, solo, resC)
	if resC.LLMCalls != 0 {
		t.Errorf("rerun made %d model calls, want 0 (reservations should have committed)", resC.LLMCalls)
	}
	release()
	if _, err := held.Wait(); err != nil {
		t.Fatalf("held statement failed: %v", err)
	}
}

// TestCancelDeadlineExceeded covers the deadline flavor: a statement whose
// context expires mid-wait returns DeadlineExceeded and counts as canceled.
// The deadline has to expire while the statement is still queued: once it
// executes, the SLO-aware batcher closes windows early for deadlined members
// (see TestQoSDeadlineClosesWindowEarly), so a parked statement would finish
// in time instead of expiring.
func TestCancelDeadlineExceeded(t *testing.T) {
	db := newDB(24)
	// One worker is held running in the backend; the other parks the
	// blocker, whose window stays open because the held statement could
	// still join it.
	gb := newGatedBackend()
	rt := New(db, Config{Workers: 2, BatchWindow: 600 * time.Millisecond, Backend: gb})
	defer rt.Close()
	held, release := holdWorker(t, rt, gb, heldStatement)
	defer release()

	// Occupy the free worker (parked in its long batch window), then
	// submit with a deadline that expires before a worker frees up.
	blocker := rt.Submit(dashboardStatements[1], Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	_, err := rt.ExecContext(ctx, dashboardStatements[0], Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if _, err := blocker.Wait(); err != nil {
		t.Fatalf("blocker failed: %v", err)
	}
	release()
	if _, err := held.Wait(); err != nil {
		t.Fatalf("held statement failed: %v", err)
	}
	if m := rt.Metrics(); m.StatementsCanceled != 1 {
		t.Errorf("statements canceled = %d, want 1", m.StatementsCanceled)
	}
}

// TestCancelBeforePickup cancels statements still sitting in the admission
// queue: the worker must fail them fast without running the planner.
func TestCancelBeforePickup(t *testing.T) {
	db := newDB(12)
	gb := newGatedBackend()
	rt := New(db, Config{Workers: 2, queueDepth: 8, BatchWindow: 200 * time.Millisecond, Backend: gb})
	defer rt.Close()
	held, release := holdWorker(t, rt, gb, heldStatement)
	defer release()

	// One worker is held running in the backend, so the blocker stays
	// parked in its window on the other; queue a statement and cancel it
	// before a worker can reach it.
	blocker := rt.Submit(dashboardStatements[0], Options{})
	ctx, cancel := context.WithCancel(context.Background())
	queued := rt.SubmitContext(ctx, dashboardStatements[1], Options{})
	cancel()
	if _, err := queued.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("queued-then-canceled statement returned %v, want context.Canceled", err)
	}
	if _, err := blocker.Wait(); err != nil {
		t.Fatalf("blocker failed: %v", err)
	}
	release()
	if _, err := held.Wait(); err != nil {
		t.Fatalf("held statement failed: %v", err)
	}
}

// TestCancelUnblocksFullQueue: SubmitContext must honor ctx while blocked
// on a full admission queue — a canceled caller gets its handle resolved
// immediately instead of waiting for a worker slot.
func TestCancelUnblocksFullQueue(t *testing.T) {
	db := newDB(24)
	gb := newGatedBackend()
	rt := New(db, Config{Workers: 2, queueDepth: 1, BatchWindow: 300 * time.Millisecond, Backend: gb})
	defer rt.Close()
	held, release := holdWorker(t, rt, gb, heldStatement)
	defer release()

	// One worker is held running in the backend, so the other's statement
	// stays parked in its batch window; one statement fills the queue, and
	// the next submission blocks on admission.
	running := rt.Submit(dashboardStatements[0], Options{})
	queued := rt.Submit(dashboardStatements[1], Options{})
	ctx, cancel := context.WithCancel(context.Background())
	blockedDone := make(chan *Handle, 1)
	go func() { blockedDone <- rt.SubmitContext(ctx, dashboardStatements[2], Options{}) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case h := <-blockedDone:
		if _, err := h.Wait(); !errors.Is(err, context.Canceled) {
			t.Fatalf("blocked submission returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("SubmitContext stayed blocked on a full queue after cancellation")
	}
	release()
	for _, h := range []*Handle{running, queued, held} {
		if _, err := h.Wait(); err != nil {
			t.Fatalf("unrelated statement failed: %v", err)
		}
	}
	m := rt.Metrics()
	if m.StatementsCanceled != 1 {
		t.Errorf("statements canceled = %d, want 1", m.StatementsCanceled)
	}
	if m.StatementsSubmitted != m.StatementsDone {
		t.Errorf("submitted %d != done %d after drain", m.StatementsSubmitted, m.StatementsDone)
	}
}

// TestStressCancelStorm is the acceptance stress: many clients submit with
// contexts canceled at random points while others run to completion. The
// pool must drain (no deadlock), canceled statements must return a context
// error, survivors must return correct relations, and the runtime must
// still serve fresh statements afterwards. CI runs this under -race.
func TestStressCancelStorm(t *testing.T) {
	const clients = 10
	const perClient = 8
	db := newDB(30)
	want, _, _ := seqBaseline(t, db, dashboardStatements)

	rt := New(db, Config{Workers: 4, queueDepth: 8, BatchWindow: 3 * time.Millisecond})
	defer rt.Close()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < perClient; i++ {
				idx := (c + i) % len(dashboardStatements)
				ctx, cancel := context.WithCancel(context.Background())
				h := rt.SubmitContext(ctx, dashboardStatements[idx], Options{})
				if rng.Intn(2) == 0 {
					time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
					cancel()
				}
				res, err := h.Wait()
				cancel()
				switch {
				case err == nil:
					sameRelation(t, dashboardStatements[idx], want[idx], res)
				case errors.Is(err, context.Canceled):
					// expected for the canceled half
				default:
					t.Errorf("statement %d/%d: unexpected error %v", c, i, err)
				}
			}
		}(c)
	}
	wg.Wait()

	m := rt.Metrics()
	if m.StatementsDone != int64(clients*perClient) {
		t.Errorf("statements done = %d, want %d (pool wedged?)", m.StatementsDone, clients*perClient)
	}
	if m.StatementsFailed != 0 {
		t.Errorf("statements failed = %d, want 0", m.StatementsFailed)
	}

	// The runtime must still be fully serviceable after the storm.
	for i, sql := range dashboardStatements {
		res, err := rt.Exec(sql, Options{})
		if err != nil {
			t.Fatalf("post-storm %q: %v", sql, err)
		}
		sameRelation(t, sql, want[i], res)
	}
}
