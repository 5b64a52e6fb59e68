package sqlfront

import (
	"context"
	"sync"
)

// Prepared is a reusable statement handle: the SQL is parsed, bound,
// validated, and planned once (both the optimized and the naive plan), and
// every Exec reuses that work. This is the "prepared statements + plan
// cache" layer repeated dashboard statements ride on — re-running a prepared
// statement costs zero parse/bind/plan time.
//
// A Prepared is safe for concurrent Exec from any number of goroutines. It
// snapshots the registry at preparation time; if tables are (re)registered
// afterwards, the next Exec transparently re-prepares against the new
// registry before running.
type Prepared struct {
	db  *DB
	src string

	mu sync.Mutex
	st *preparedState // guarded by mu
}

// Prepare parses, binds, validates, and plans one LLM-SQL statement for
// repeated execution.
func (db *DB) Prepare(src string) (*Prepared, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	st, err := db.prepareParsed(q)
	if err != nil {
		return nil, err
	}
	return &Prepared{db: db, src: src, st: st}, nil
}

// SQL returns the statement text the handle was prepared from.
func (p *Prepared) SQL() string { return p.src }

// ExecContext runs the prepared statement. cfg.Naive selects the cached
// naive plan instead of the optimized one; both were built at Prepare time,
// so the toggle costs nothing. When the registry changed since preparation
// the statement is re-prepared first (a changed FROM table may have a new
// schema, making the cached binding invalid). Cancellation is checked before
// every LLM stage and between engine steps within one.
func (p *Prepared) ExecContext(ctx context.Context, cfg ExecConfig) (*Result, error) {
	p.mu.Lock()
	st := p.st
	if st.version != p.db.Version() {
		q, err := Parse(p.src)
		if err != nil {
			p.mu.Unlock()
			return nil, err
		}
		st, err = p.db.prepareParsed(q)
		if err != nil {
			p.mu.Unlock()
			return nil, err
		}
		p.st = st
	}
	p.mu.Unlock()
	return p.db.execPlan(ctx, st, cfg)
}
