package runtime

import (
	"context"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/table"
)

// batcher coalesces pending LLM calls from concurrent statements into shared
// engine runs. Submissions are grouped by stage fingerprint (same prompt,
// schema, answer alphabet, and serving config — see stageFingerprint); a
// group stays open for its batch window, or until it reaches maxBatchRows,
// then flushes as one GGR-reordered stage over the union of its members'
// rows. Rows from different statements that share the prompt prefix are
// therefore scheduled next to each other, so the prefix cache hits across
// queries, not just within one.
//
// The window is SLO-aware: each member buys the window its service class
// configures (interactive short, batch-class long — Config.BatchWindow and
// BatchClassWindow), clamped by its statement deadline, and a group closes
// at the NEAREST horizon any member has asked for. So batch-class openers
// hold a window open to coalesce aggressively, but the moment an interactive
// statement (or one with a tight deadline) joins, the close is pulled
// forward to its horizon — throughput traffic never taxes latency traffic
// with its own window. Every pull-forward is counted in
// Metrics.BatchWindowsShortened.
type batcher struct {
	rt     *Runtime
	mu     sync.Mutex
	groups map[string]*group // guarded by mu
}

// maxBatchRows flushes a group early once it holds this many rows: the cap
// bounds one engine run's memory and solver time however long a batch-class
// window stays open.
const maxBatchRows = 4096

// member is one statement's contribution to a group: the rows of its stage
// table it needs computed. The flush closes done and fills outputs (aligned
// with rows) or err.
type member struct {
	spec query.Spec
	tbl  *table.Table
	rows []int
	done chan struct{}

	offset  int
	outputs []string
	batch   *query.StageResult
	err     error

	// Trace plumbing: traced marks a member whose statement is recording
	// (captured at submit); window / pulledForward describe the batch wait
	// its class bought; bspan is the shared batch span run() records when
	// any member is traced — adopted (charges zero) into each traced
	// member's tree. All are written before done closes and read only by
	// the owning statement after it.
	traced        bool
	window        time.Duration
	pulledForward bool
	bspan         *obs.Span

	// client / class identify the submitting statement (captured at submit,
	// since the flush runs on a detached context): a single-tenant batch is
	// attributed to that tenant on remote workers, a mixed one to "shared".
	client ClientID
	class  Class
}

// group accumulates members with one fingerprint until flush.
type group struct {
	fp      string
	cols    []string
	qcfg    query.Config
	members []*member
	rows    int
	flushed bool
	// fireAt / timer are the group's scheduled close. fireAt only ever moves
	// earlier (a joiner with a nearer horizon resets the timer); nil timer
	// means the group flushes inline (window disabled). Guarded by batcher.mu.
	fireAt time.Time
	timer  *time.Timer
}

func newBatcher(rt *Runtime) *batcher {
	return &batcher{rt: rt, groups: make(map[string]*group)}
}

// submit enqueues rows of tbl under fp and returns the member handle; the
// caller blocks on member.done. Never called with an empty row set. ctx is
// the submitting statement's context: its service class picks the window
// this member is willing to wait, and its deadline clamps it.
func (b *batcher) submit(ctx context.Context, fp string, spec query.Spec, tbl *table.Table, rows []int, qcfg query.Config) *member {
	m := &member{spec: spec, tbl: tbl, rows: rows, done: make(chan struct{}),
		traced: obs.FromContext(ctx) != nil}
	if si := stmtInfoFrom(ctx); si != nil {
		m.client, m.class = si.client, si.class
	}
	window := b.rt.cfg.windowFor(classFrom(ctx))
	m.window = window
	now := time.Now()
	fire := now.Add(window)
	if dl, ok := ctx.Deadline(); ok {
		if remaining := dl.Sub(now); remaining <= 0 {
			fire = now // already expired: flush inline, the caller will see ctx.Err
		} else if clamp := dl.Add(-remaining / 5); clamp.Before(fire) {
			// Close before the deadline, not at it: keep a slice of the
			// budget for the engine run so the statement can still finish.
			fire = clamp
		}
	}
	immediate := window <= 0 || !fire.After(now)
	shortened := false
	b.mu.Lock()
	g := b.groups[fp]
	if g == nil {
		g = &group{fp: fp, cols: tbl.Columns(), qcfg: qcfg}
		b.groups[fp] = g
		if !immediate {
			g.fireAt = fire
			g.timer = time.AfterFunc(fire.Sub(now), func() { b.flush(g) })
		}
	} else if g.timer != nil && fire.Before(g.fireAt) {
		// This member's horizon is nearer than the group's scheduled close:
		// pull the close forward (an interactive statement joining a
		// batch-class window, or a deadline inside it). Flush is idempotent,
		// so losing a race with the old timer firing is harmless.
		g.fireAt = fire
		if immediate {
			g.timer.Stop()
		} else {
			g.timer.Reset(time.Until(fire))
		}
		shortened = true
	}
	g.members = append(g.members, m)
	g.rows += len(rows)
	full := g.rows >= maxBatchRows
	b.mu.Unlock()
	if shortened {
		b.rt.c.batchWindowsShortened.Add(1)
		m.pulledForward = true
	}
	if full || immediate {
		b.flush(g)
	}
	return m
}

// flush detaches the group (idempotently) and runs it. Called from the
// window timer, from submit when the group fills or the window is disabled,
// and from Close for stragglers.
func (b *batcher) flush(g *group) {
	b.mu.Lock()
	if g.flushed {
		b.mu.Unlock()
		return
	}
	g.flushed = true
	if g.timer != nil {
		g.timer.Stop()
	}
	if b.groups[g.fp] == g {
		delete(b.groups, g.fp)
	}
	members := g.members
	b.mu.Unlock()
	b.run(g, members)
}

// flushAll drains every open group synchronously (shutdown path).
func (b *batcher) flushAll() {
	b.mu.Lock()
	var gs []*group
	for _, g := range b.groups {
		gs = append(gs, g)
	}
	b.mu.Unlock()
	for _, g := range gs {
		b.flush(g)
	}
}

// run executes one coalesced stage: the union of the members' rows as a
// single table, reordered by the configured policy and served by one engine
// instance (the engine and its kvcache.Cache are confined to this call — the
// cache type is not concurrency-safe, so no engine is ever shared). Each
// member's spec hooks (RowKeys, OutTokensFor) are dispatched per row, so a
// row's oracle draw and output budget are exactly what its own statement
// would have used.
func (b *batcher) run(g *group, members []*member) {
	// One shared batch span serves every traced member: it carries the
	// whole run's detail as attributes but charges nothing — each member
	// charges its own proportional share on its own stage span, so a batch
	// shared by k traced statements never double-counts.
	var bsp *obs.Span
	for _, m := range members {
		if m.traced {
			bsp = obs.NewSpan("batch")
			break
		}
	}
	tmpl := members[0].spec
	combined := table.New(g.cols...)
	var truths []string
	total := 0
	for _, m := range members {
		m.offset = total
		total += len(m.rows)
		for _, r := range m.rows {
			combined.MustAppendRow(m.tbl.Row(r)...)
			if tmpl.TruthHidden != "" {
				truths = append(truths, m.tbl.HiddenValue(tmpl.TruthHidden, r))
			}
		}
	}
	if tmpl.TruthHidden != "" {
		if err := combined.SetHidden(tmpl.TruthHidden, truths); err != nil {
			panic(err) // unreachable: truths matches the row count by construction
		}
	}
	// FDs steer GGR's column scoring; every member projects the same
	// statement shape, so the first member's (schema-identical) FDs apply.
	if err := combined.SetFDs(members[0].tbl.FDs()); err != nil {
		panic(err) // unreachable: identical schema by fingerprint
	}

	rowKeys := make([]uint64, total)
	outTok := make([]int, total)
	for _, m := range members {
		for j, r := range m.rows {
			rowKeys[m.offset+j] = m.spec.RowKeys(r)
			outTok[m.offset+j] = m.spec.OutTokensFor(r)
		}
	}
	spec := tmpl
	spec.RowKeys = func(row int) uint64 { return rowKeys[row] }
	spec.RowOutTokens = func(row int) int { return outTok[row] }

	bsp.Set("members", len(members))
	bsp.Set("rows", total)

	// The run is deliberately detached from any one statement's context: a
	// coalesced batch may carry rows from several statements, and canceling
	// one must not starve the others (a canceled member's reservations are
	// settled by its detached resolver when this run lands — see RunStage).
	// The shared batch span rides the detached context so the query and
	// backend layers annotate it; so does the batch's tenant identity, so a
	// network backend attributes the batch on the remote worker: a batch
	// whose members all belong to one tenant travels as that tenant, a
	// coalesced multi-tenant batch as client "shared".
	ci := backend.ClientInfo{Client: string(members[0].client), Class: string(members[0].class)}
	for _, m := range members[1:] {
		if m.client != members[0].client {
			ci = backend.ClientInfo{Client: "shared", Class: ""}
			break
		}
	}
	//llmqlint:detached -- batch outlives any single member statement's context
	bctx := obs.With(backend.WithClientInfo(context.Background(), ci), bsp)
	st, err := query.RunStageContext(bctx, spec, combined, g.qcfg)
	if err != nil {
		bsp.Set("error", err.Error())
		bsp.End()
		for _, m := range members {
			m.err = err
			m.bspan = bsp
			close(m.done)
		}
		return
	}

	c := &b.rt.c
	c.batches.Add(1)
	c.llmCalls.Add(int64(total))
	c.jctMicros.Add(int64(st.Metrics.JCT * 1e6))
	c.solverMicros.Add(int64(st.SolverSeconds * 1e6))
	c.promptTokens.Add(st.Metrics.PromptTokens)
	c.matchedTokens.Add(st.Metrics.MatchedTokens)
	c.prefilledTokens.Add(st.Metrics.PrefilledTokens)
	if len(members) > 1 {
		c.coalescedRuns.Add(1)
		c.coalescedRows.Add(int64(total))
	}
	if bsp != nil {
		bsp.Set("shared", len(members) > 1)
		bsp.Set("jctSeconds", st.Metrics.JCT)
		bsp.Set("solverSeconds", st.SolverSeconds)
		bsp.Set("promptTokens", st.Metrics.PromptTokens)
		bsp.Set("matchedTokens", st.Metrics.MatchedTokens)
		bsp.End()
	}
	for _, m := range members {
		m.batch = st
		m.outputs = st.Outputs[m.offset : m.offset+len(m.rows)]
		m.bspan = bsp
		close(m.done)
	}
}
