package runtime

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/sqlfront"
)

// TestStressManyClients is the satellite stress test: many goroutines ×
// many statements through one runtime, asserting every concurrent result is
// bit-identical to its sequential reference and the accounting stays
// coherent. CI runs this under -race, which is the point: it exercises the
// registry, plan cache, result cache, inflight table, and batcher from
// every direction at once.
func TestStressManyClients(t *testing.T) {
	const (
		clients   = 8
		perClient = 12
		rows      = 30
	)
	db := newDB(rows)
	want, seqCalls, _ := seqBaseline(t, db, dashboardStatements)

	rt := New(db, Config{
		Workers:     6,
		queueDepth:  16,
		BatchWindow: 5 * time.Millisecond,
	})
	defer rt.Close()

	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				idx := (c + i) % len(dashboardStatements)
				res, err := rt.Exec(dashboardStatements[idx], Options{})
				if err != nil {
					errs <- err
					return
				}
				// sameRelation uses t.Errorf, which is goroutine-safe.
				sameRelation(t, dashboardStatements[idx], want[idx], res)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	m := rt.Metrics()
	if got, want := m.StatementsDone, int64(clients*perClient); got != want {
		t.Errorf("statements done = %d, want %d", got, want)
	}
	if m.StatementsFailed != 0 {
		t.Errorf("failed statements = %d", m.StatementsFailed)
	}
	// Every statement repeats many times across clients; the result cache
	// (plus inflight dedup) must keep total model calls at most one
	// sequential pass over the distinct statements — and far below the
	// clients × perClient naive total.
	if m.LLMCalls > seqCalls {
		t.Errorf("model calls = %d, want <= %d (one sequential pass)", m.LLMCalls, seqCalls)
	}
	if m.CacheHits == 0 {
		t.Error("no result-cache hits in a workload full of repeats")
	}
	if got, want := m.PlanCacheMisses, int64(len(dashboardStatements)); got != want {
		t.Errorf("plan cache misses = %d, want %d (one per distinct statement)", got, want)
	}
	// hits + misses + within-stage dup rows + inflight piggybacks must
	// account for every row of every stage the runtime saw.
	lookups := m.CacheHits + m.CacheMisses + m.InflightDeduped + m.RowsDeduped
	if lookups == 0 {
		t.Error("no cache lookups recorded")
	}
}

// TestStressRegistrationDuringExecution re-registers tables while
// statements execute against them. Execution binds against a registry
// snapshot, so every statement must see a coherent table (either the old or
// the new registration, never a mix) and return one of the two valid
// relations; under -race this doubles as the registry's concurrency audit.
func TestStressRegistrationDuringExecution(t *testing.T) {
	db := newDB(15)
	sql := `SELECT region, COUNT(*) AS n FROM tickets GROUP BY region ORDER BY region`
	small, err := db.Exec(sql, sqlfront.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	bigDB := sqlfront.NewDB()
	bigDB.Register("tickets", ticketsTable(30))
	big, err := bigDB.Exec(sql, sqlfront.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}

	rt := New(db, Config{Workers: 4, CacheCapacity: -1, BatchWindow: -1})
	defer rt.Close()
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			db.Register("tickets", ticketsTable(15+15*(i%2)))
		}
	}()
	var clients sync.WaitGroup
	for g := 0; g < 4; g++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for i := 0; i < 20; i++ {
				res, err := rt.Exec(sql, Options{})
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(res.Rows, small.Rows) && !reflect.DeepEqual(res.Rows, big.Rows) {
					t.Errorf("torn relation: %v", res.Rows)
					return
				}
			}
		}()
	}
	clients.Wait()
	close(stop)
	churn.Wait()
}

// TestStressRepeatedPrepared hammers one statement text from many
// goroutines; the plan cache shares its plan, so this doubles as a race
// check on Prepared's immutable execution state.
func TestStressRepeatedPrepared(t *testing.T) {
	db := newDB(20)
	sql := dashboardStatements[0]
	solo, err := db.Exec(sql, sqlfront.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}

	rt := New(db, Config{Workers: 4, BatchWindow: 2 * time.Millisecond})
	defer rt.Close()

	var wg sync.WaitGroup
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				res, err := rt.Exec(sql, Options{})
				if err != nil {
					t.Error(err)
					return
				}
				sameRelation(t, sql, solo, res)
			}
		}()
	}
	wg.Wait()
	if m := rt.Metrics(); m.LLMCalls > int64(solo.LLMCalls) {
		t.Errorf("model calls = %d, want <= %d", m.LLMCalls, solo.LLMCalls)
	}
}
