// Package runtime is the concurrent serving layer between the LLM-SQL front
// end and the simulated serving engine: where sqlfront executes one
// statement at a time, this package serves many at once and makes them
// cheaper together than apart — the missing piece between the paper's
// single-query optimizer and the serving platforms it targets.
//
// Architecture, top to bottom:
//
//	Submit/Exec/Prepare                    (statement API; Options carries the
//	      │                                 tenant's ClientID and service Class)
//	quota gate                             (per-client token/call buckets;
//	      │                                 overdrawn clients get a QuotaError —
//	      │                                 429 + Retry-After on the wire)
//	      ▼
//	fair admission queue ──► worker pool   (deficit-round-robin over
//	      │                                 per-(client, class) flows: a heavy
//	      │                                 analytics tenant cannot starve an
//	      │                                 interactive one; workers bound
//	      │                                 concurrency as before)
//	      ▼
//	plan cache                             (sql text → Prepared: parse, bind,
//	      │                                 validate, and plan exactly once)
//	      ▼
//	per-stage RunStage hook                (injected as ExecConfig.StageRunner)
//	      │
//	      ├─ result cache    exact-match (prompt, row content, truth, budget)
//	      │                  → answer; repeated dashboard rows skip the model
//	      ├─ inflight dedup  identical concurrent calls run once; later
//	      │                  statements piggyback on the first
//	      └─ micro-batcher   pending misses that share a stage fingerprint
//	            │            coalesce for an SLO-aware batch window —
//	            │            interactive statements close it early, batch-class
//	            │            statements hold it open longer to coalesce more,
//	            │            and a statement deadline closes it in time — then
//	            │            run as ONE GGR-reordered stage over the union of
//	            │            rows (identical repeated windows skip the solve
//	            ▼            via the reorder cache; prompts use a token memo)
//	      backend.Backend    (the pluggable engine seam: Sim confines one
//	                          engine + kvcache to each coalesced run, the
//	                          paper's setting; Persistent keeps a pool of
//	                          long-lived engine replicas per stage
//	                          fingerprint so the prefix cache survives
//	                          BETWEEN batch windows and concurrent windows
//	                          overlap; Sharded splits a batch at its
//	                          prefix-group boundaries and fans the shards
//	                          out to concurrent engine runs; Recording taps
//	                          batches for tests)
//
// The cross-query batcher is what turns the paper's reordering from a
// per-query optimization into a fleet-level one: rows from different
// statements that share a prompt prefix are scheduled adjacently, so the
// prefix cache hits across queries, not just within one. With a persistent
// backend the same effect extends across batch windows: the second
// dashboard refresh finds the first refresh's prefixes still cached.
//
// Cancellation: every submission path has a Context variant. A canceled
// statement fails fast in the admission queue, stops between LLM stages,
// and abandons a pending batch wait — without poisoning shared state: the
// coalesced run it joined still completes (it may carry other statements'
// rows), and a detached resolver commits or fails the canceled statement's
// result-cache reservations when that run lands, so concurrent subscribers
// and later statements proceed as if nothing happened.
//
// Semantics: answers are content-keyed (sqlfront stages key every oracle
// draw by row content), so caching, dedup, batching, and backend choice
// never change what a statement returns — with the same field-position
// caveat that sqlfront.ExecConfig.Naive documents for the bundled datasets,
// whose simulated accuracy depends on where the reordering places the key
// field. On ad-hoc (CSV) tables, concurrent results are bit-identical to
// sequential ones; the stress tests assert exactly that.
package runtime

import (
	"context"
	"errors"
	"log/slog"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/sqlfront"
)

// Config sizes the runtime. The zero value serves with 4 workers, a 64-deep
// admission queue, a 2ms batch window, and a 64k-entry result cache.
type Config struct {
	// Workers bounds concurrently executing statements.
	Workers int
	// QueueDepth bounds admitted-but-unscheduled statements; Submit blocks
	// (backpressure) once the queue is full.
	QueueDepth int
	// BatchWindow is how long the first pending call of a stage fingerprint
	// waits for concurrent statements to join its batch. Longer windows
	// coalesce more at the cost of added latency; negative disables
	// coalescing (every stage flushes immediately, dedup and caching still
	// apply). This is the window interactive-class statements pay; an
	// interactive statement joining a window scheduled further out (by a
	// batch-class opener) pulls its close forward to this horizon.
	BatchWindow time.Duration
	// BatchClassWindow is the coalescing window for batch-class statements,
	// which prefer throughput over latency: they hold a batch open longer so
	// more concurrent calls ride one engine run. Zero defaults to 10×
	// BatchWindow; negative makes batch-class flush immediately too. A
	// statement deadline (context deadline) closer than the window always
	// closes the batch in time.
	BatchClassWindow time.Duration
	// FIFOAdmission reverts the admission scheduler to PR 3's anonymous
	// single FIFO — the A/B baseline for the QoS acceptance test, in the
	// Naive tradition.
	FIFOAdmission bool
	// DefaultQuota, when enabled, bounds every client's model-call and
	// prompt-token draw (post-paid token buckets; see Quota). ClientQuotas
	// overrides it per client. Statements over quota fail admission with a
	// *QuotaError carrying the retry horizon.
	DefaultQuota Quota
	ClientQuotas map[ClientID]Quota
	// CacheCapacity bounds the result cache in entries, evicted LRU
	// (default 65536; negative disables result caching — inflight dedup
	// still collapses concurrent identical calls).
	CacheCapacity int
	// PlanCacheCapacity bounds the parse+plan cache in distinct statement
	// texts (default 1024; negative disables plan caching). Statements that
	// inline varying literals each count as a distinct text, so the bound
	// keeps an open /v1/sql endpoint from growing memory without limit.
	PlanCacheCapacity int
	// Exec is the base execution config statements run under (policy,
	// model). Per-statement Options override Naive and Policy; StageRunner
	// is always the runtime's own.
	Exec sqlfront.ExecConfig
	// Backend is the serving target every engine run goes to. Nil keeps
	// Exec.Backend (and the package default — one confined engine per
	// batch — when that is nil too). A persistent backend here is what
	// lets prefix hits span batch windows; a backend.Sharded wrapper is what
	// fans one hot batch out over engine replicas; see internal/backend.
	Backend backend.Backend
	// ReorderCacheCapacity bounds the GGR reorder cache in schedules
	// (default query.DefaultReorderCacheCapacity; negative disables): a
	// batch window identical to an earlier one — same stage fingerprint,
	// same rows — reuses its schedule instead of re-running the solver.
	ReorderCacheCapacity int
	// PromptCacheCapacity bounds the prompt tokenization memo in distinct
	// pieces — cells and stage prefixes (default
	// query.DefaultPromptCacheCapacity; negative disables): a cell repeated
	// across rows, stages and batch windows is tokenized once, on one
	// long-lived tokenizer.
	PromptCacheCapacity int
	// SlowQueryThreshold, when positive, turns on the slow-query log: every
	// statement is recorded (a trace cannot be reconstructed after the
	// fact), and those whose wall time — admission to settlement — meets the
	// threshold are retained in the trace ring and reported to SlowLogger.
	// Zero records only statements that opt in with Options.Trace.
	SlowQueryThreshold time.Duration
	// TraceRingSize bounds the ring of retained traces behind
	// Runtime.Traces / GET /v1/traces (default 128; negative disables
	// retention — Handle.Trace still works).
	TraceRingSize int
	// SlowLogger, when non-nil, gets one structured record per statement
	// exceeding SlowQueryThreshold. Nil disables slow logging (traces are
	// still retained in the ring).
	SlowLogger *slog.Logger
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return 4
}

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 64
}

func (c Config) batchWindow() time.Duration {
	if c.BatchWindow != 0 {
		return c.BatchWindow
	}
	return 2 * time.Millisecond
}

// windowFor resolves the coalescing window a statement's class buys.
func (c Config) windowFor(class Class) time.Duration {
	w := c.batchWindow()
	if class != ClassBatch {
		return w
	}
	if c.BatchClassWindow != 0 {
		return c.BatchClassWindow
	}
	if w <= 0 {
		return w
	}
	return 10 * w
}

func (c Config) cacheCapacity() int {
	if c.CacheCapacity != 0 {
		return c.CacheCapacity
	}
	return 65536
}

func (c Config) planCacheCapacity() int {
	if c.PlanCacheCapacity != 0 {
		return c.PlanCacheCapacity
	}
	return 1024
}

func (c Config) traceRingSize() int {
	if c.TraceRingSize != 0 {
		return c.TraceRingSize
	}
	return 128
}

// rollupLimit bounds distinct StageKeys the per-stage rollup store tracks —
// far above the cardinality of recurring stages; ad-hoc traffic (a fresh
// prompt per statement) fills it, and the least recently observed keys age
// out, so /v1/metrics stays bounded.
const rollupLimit = 512

// interactiveWeight and batchWeight are the admission scheduler's DRR
// quantums per class: of every 5 admission slots under contention,
// interactive flows get 4. Each distinct (client, class) pair is its own
// flow, so no tenant — and no tenant's batch backlog — can starve another's
// interactive traffic.
const (
	interactiveWeight = 4
	batchWeight       = 1
)

// Options tunes one statement's execution.
type Options struct {
	// Naive runs the statement's naive plan (no pushdown, dedup, or
	// cost-ordered cascade) — the same A/B toggle as sqlfront.
	Naive bool
	// Policy overrides the runtime's base scheduling policy ("" keeps it).
	Policy query.Policy
	// Client names the tenant this statement runs for: its fair-queue flow,
	// quota bucket, and metrics row. Empty is normalized to DefaultClient.
	Client ClientID
	// Class is the statement's service class (empty means
	// ClassInteractive): it selects the admission weight and the
	// micro-batcher's coalescing window.
	Class Class
	// Trace records a span tree for this statement — EXPLAIN ANALYZE for
	// the serving path. The tree is available on Handle.Trace after the
	// statement settles and is retained in the /v1/traces ring. Untraced
	// statements pay nothing: no recorder is created and every span call
	// no-ops on a nil receiver.
	Trace bool
}

// Runtime is a concurrent LLM-SQL server over one table registry. Create it
// with New, submit statements from any number of goroutines, and Close it to
// drain. See the package comment for the architecture.
type Runtime struct {
	db      *sqlfront.DB
	cfg     Config
	queue   *fairQueue
	wg      sync.WaitGroup
	cache   *resultCache
	batcher *batcher
	reorder *query.ReorderCache
	prompts *query.PromptCache
	c       counters
	traces  *obs.Ring    // nil when retention is disabled
	rollups *obs.Rollups // per-StageKey feedback store

	// waitInteractive / waitBatch are the admission-queue wait histograms
	// by service class (atomic internals; no lock).
	waitInteractive waitHist
	waitBatch       waitHist

	planMu sync.Mutex
	plans  *lru.Map[string, *sqlfront.Prepared] // guarded by planMu

	quotaMu sync.Mutex
	quotas  map[ClientID]*quotaBucket // guarded by quotaMu

	clientMu sync.Mutex
	clients  map[ClientID]*clientCounters // guarded by clientMu

	closeMu sync.RWMutex
	closed  bool // guarded by closeMu
}

// errClosed is the submission error of a closed runtime.
var errClosed = errors.New("runtime: closed")

type job struct {
	ctx        context.Context
	p          *sqlfront.Prepared
	opts       Options
	h          *Handle
	client     ClientID
	class      Class
	enqueuedAt time.Time

	// planState / prepDur feed the trace's prepare span: how the statement's
	// plan was resolved ("hit" / "miss" / "prepared") and how long it took.
	planState string
	prepDur   time.Duration
	// roundsAtPush / drrRounds are the DRR scheduler's ring-pass counter at
	// enqueue and the passes this statement waited through (set at pop; zero
	// under FIFO admission).
	roundsAtPush int64
	drrRounds    int64
}

// Handle is a pending statement's future.
type Handle struct {
	done    chan struct{}
	res     *sqlfront.Result
	err     error
	trace   *obs.Trace  // set before done closes; nil unless recorded
	summary StmtSummary // set before done closes
}

// StmtSummary is the per-statement accounting settled on every handle —
// the data an access log line needs without a full trace.
type StmtSummary struct {
	Client       ClientID
	Class        Class
	QueueWait    time.Duration
	Wall         time.Duration
	JCTSeconds   float64
	LLMCalls     int64
	PromptTokens int64
}

// Trace returns the statement's recorded span tree, nil unless the
// statement ran with Options.Trace (or under a slow-query threshold) and
// has settled — valid only after Wait returns.
func (h *Handle) Trace() *obs.Trace { return h.trace }

// Summary returns the statement's settled accounting — valid only after
// Wait returns. Statements that failed admission report a zero summary.
func (h *Handle) Summary() StmtSummary { return h.summary }

// Wait blocks until the statement finishes and returns its result. It is
// WaitContext without a way to give up.
func (h *Handle) Wait() (*sqlfront.Result, error) {
	//llmqlint:detached -- no-cancellation convenience wrapper over WaitContext
	return h.WaitContext(context.Background())
}

// WaitContext blocks until the statement finishes or ctx dies, whichever
// comes first. Abandoning the wait does not abandon the statement: it keeps
// running under its own submission context, its result stays settled on the
// handle (a later Wait still returns it), and no goroutine is parked on the
// caller's behalf — so a caller can stop caring about a future without
// leaking its result.
func (h *Handle) WaitContext(ctx context.Context) (*sqlfront.Result, error) {
	select {
	case <-h.done:
		return h.res, h.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// New starts a runtime over db. The caller owns db's registrations (tables
// may be registered before or after New) and must Close the runtime to
// release its workers.
func New(db *sqlfront.DB, cfg Config) *Runtime {
	rt := &Runtime{
		db:      db,
		cfg:     cfg,
		queue:   newFairQueue(cfg.queueDepth(), interactiveWeight, batchWeight, cfg.FIFOAdmission),
		cache:   newResultCache(cfg.cacheCapacity()),
		plans:   lru.New[string, *sqlfront.Prepared](cfg.planCacheCapacity()),
		quotas:  make(map[ClientID]*quotaBucket),
		clients: make(map[ClientID]*clientCounters),
		rollups: obs.NewRollups(rollupLimit),
	}
	if cfg.traceRingSize() > 0 {
		rt.traces = obs.NewRing(cfg.traceRingSize())
	}
	if cfg.ReorderCacheCapacity >= 0 {
		rt.reorder = query.NewReorderCache(cfg.ReorderCacheCapacity)
	}
	if cfg.PromptCacheCapacity >= 0 {
		rt.prompts = query.NewPromptCache(cfg.PromptCacheCapacity)
	}
	rt.batcher = newBatcher(rt)
	for i := 0; i < cfg.workers(); i++ {
		rt.wg.Add(1)
		go rt.worker()
	}
	return rt
}

// DB returns the registry statements run against.
func (rt *Runtime) DB() *sqlfront.DB { return rt.db }

// Totals snapshots the fixed-size accounting: the runtime's own counters,
// the reorder and prompt caches' lookup accounting and — when the serving
// backend is a backend.Sharded — the data-parallel shard counters. Every
// source is an atomic, so the cost is independent of how many statements,
// stages or clients the runtime has served, and no lock is taken.
func (rt *Runtime) Totals() Totals {
	t := rt.c.snapshot()
	if rt.reorder != nil {
		s := rt.reorder.Stats()
		t.ReorderCacheHits, t.ReorderCacheMisses, t.ReorderSolves = s.Hits, s.Misses, s.Solves
	}
	if rt.prompts != nil {
		t.PromptCacheHits, t.PromptCacheMisses = rt.prompts.Hits(), rt.prompts.Misses()
	}
	s := backend.ShardStatsOf(rt.servingBackend())
	t.ShardedBatches, t.ShardRuns, t.ShardJCTSeconds = s.ShardedBatches, s.ShardRuns, s.ShardJCTSeconds
	return t
}

// Metrics snapshots the whole accounting: Totals plus the per-client,
// per-class and per-stage breakdowns, whose size (and the locks they are
// read under) grow with served history and fleet size.
func (rt *Runtime) Metrics() Metrics {
	m := Metrics{Totals: rt.Totals()}
	rt.clientMu.Lock()
	if len(rt.clients) > 0 {
		m.Clients = make(map[ClientID]ClientMetrics, len(rt.clients))
		for id, cc := range rt.clients {
			m.Clients[id] = ClientMetrics{
				Statements:       cc.statements,
				Canceled:         cc.canceled,
				QuotaRejections:  cc.quotaRejections,
				LLMCalls:         cc.llmCalls,
				PromptTokens:     cc.promptTokens,
				JCTSeconds:       float64(cc.jctMicros) / 1e6,
				QueueWaitSeconds: float64(cc.queueWaitMicros) / 1e6,
			}
		}
	}
	rt.clientMu.Unlock()
	qw := make(map[Class]WaitHistogram, 2)
	if h := rt.waitInteractive.snapshot(); h.Count > 0 {
		qw[ClassInteractive] = h
	}
	if h := rt.waitBatch.snapshot(); h.Count > 0 {
		qw[ClassBatch] = h
	}
	if len(qw) > 0 {
		m.QueueWait = qw
	}
	m.Stages = rt.rollups.Snapshot()
	return m
}

// Traces returns the retained statement traces, newest first: explicitly
// traced statements plus those over the slow-query threshold, bounded FIFO
// by Config.TraceRingSize.
func (rt *Runtime) Traces() []*obs.Trace { return rt.traces.Snapshot() }

// observeStage is the executor's per-stage feedback hook (wired as
// ExecConfig.StageObserver): it folds one executed stage's observed rows,
// selectivity, tokens, and latency into the per-StageKey rollups.
func (rt *Runtime) observeStage(ob obs.StageObservation) { rt.rollups.Observe(ob) }

// waitFor picks the class's admission-wait histogram.
func (rt *Runtime) waitFor(class Class) *waitHist {
	if class == ClassBatch {
		return &rt.waitBatch
	}
	return &rt.waitInteractive
}

// clientLocked resolves (creating on first sight) a client's counters.
//
//llmqlint:holds clientMu
func (rt *Runtime) clientLocked(id ClientID) *clientCounters {
	cc := rt.clients[id]
	if cc == nil {
		cc = &clientCounters{}
		rt.clients[id] = cc
	}
	return cc
}

// quotaFor resolves the client's quota bucket, nil when unlimited. Buckets
// are created lazily so an open-ended client population cannot preallocate
// memory; the map is bounded by clients actually seen.
func (rt *Runtime) quotaFor(client ClientID) *quotaBucket {
	q, ok := rt.cfg.ClientQuotas[client]
	if !ok {
		q = rt.cfg.DefaultQuota
	}
	if !q.Enabled() {
		return nil
	}
	rt.quotaMu.Lock()
	defer rt.quotaMu.Unlock()
	b := rt.quotas[client]
	if b == nil {
		b = newQuotaBucket(q, time.Now())
		rt.quotas[client] = b
	}
	return b
}

// servingBackend resolves the backend statements run on: Config.Backend
// wins over Exec's embedded one.
func (rt *Runtime) servingBackend() backend.Backend {
	if rt.cfg.Backend != nil {
		return rt.cfg.Backend
	}
	return rt.cfg.Exec.Backend
}

// CachedResults reports the result cache's current entry count.
func (rt *Runtime) CachedResults() int { return rt.cache.len() }

// Submit admits one statement and returns immediately with its future.
// Admission blocks while the queue is full; a closed runtime fails fast.
func (rt *Runtime) Submit(sql string, opts Options) *Handle {
	//llmqlint:detached -- no-cancellation convenience wrapper over SubmitContext
	return rt.SubmitContext(context.Background(), sql, opts)
}

// SubmitContext is Submit with a statement-scoped context. Canceling ctx
// cancels the statement wherever it is: still queued (it fails fast when a
// worker picks it up), between LLM stages, or parked in a batch window. The
// handle then resolves with an error wrapping ctx.Err(); shared state —
// coalesced batches, inflight dedup entries, result-cache reservations — is
// handed over cleanly, so concurrent statements are unaffected.
func (rt *Runtime) SubmitContext(ctx context.Context, sql string, opts Options) *Handle {
	prepStart := time.Now()
	p, hit, err := rt.prepared(sql)
	if err != nil {
		return failedHandle(err)
	}
	planState := "miss"
	if hit {
		planState = "hit"
	}
	return rt.submitPrepared(ctx, p, opts, planState, time.Since(prepStart))
}

// Exec is Submit + Wait: run one statement to completion.
func (rt *Runtime) Exec(sql string, opts Options) (*sqlfront.Result, error) {
	return rt.Submit(sql, opts).Wait()
}

// ExecContext is SubmitContext + Wait.
func (rt *Runtime) ExecContext(ctx context.Context, sql string, opts Options) (*sqlfront.Result, error) {
	return rt.SubmitContext(ctx, sql, opts).Wait()
}

// Stmt is a prepared statement bound to the runtime: Execute skips parse,
// bind, and planning on every run.
type Stmt struct {
	rt *Runtime
	p  *sqlfront.Prepared
}

// Prepare parses and plans sql once, through the runtime's plan cache:
// preparing the same text twice returns the same underlying plan.
func (rt *Runtime) Prepare(sql string) (*Stmt, error) {
	p, _, err := rt.prepared(sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{rt: rt, p: p}, nil
}

// SQL returns the statement text.
func (s *Stmt) SQL() string { return s.p.SQL() }

// Submit admits the prepared statement and returns its future.
//
//llmqlint:detached -- no-cancellation convenience wrapper over SubmitContext
func (s *Stmt) Submit(opts Options) *Handle { return s.SubmitContext(context.Background(), opts) }

// SubmitContext is Submit with a statement-scoped context (see
// Runtime.SubmitContext for the cancellation semantics).
func (s *Stmt) SubmitContext(ctx context.Context, opts Options) *Handle {
	return s.rt.submitPrepared(ctx, s.p, opts, "prepared", 0)
}

// Execute runs the prepared statement to completion.
func (s *Stmt) Execute(opts Options) (*sqlfront.Result, error) {
	return s.Submit(opts).Wait()
}

// ExecuteContext is SubmitContext + Wait.
func (s *Stmt) ExecuteContext(ctx context.Context, opts Options) (*sqlfront.Result, error) {
	return s.SubmitContext(ctx, opts).Wait()
}

// Close drains the admission queue, waits for in-flight statements, and
// flushes any batch still waiting on its window. Statements submitted after
// Close fail immediately.
func (rt *Runtime) Close() {
	rt.closeMu.Lock()
	if rt.closed {
		rt.closeMu.Unlock()
		return
	}
	rt.closed = true
	rt.queue.close()
	rt.closeMu.Unlock()
	rt.wg.Wait()
	rt.batcher.flushAll()
}

// prepared resolves sql through the plan cache, reporting whether it was a
// cache hit (the trace's prepare span). The cache is bounded: past
// capacity the least recently used statement text is evicted.
func (rt *Runtime) prepared(sql string) (*sqlfront.Prepared, bool, error) {
	rt.planMu.Lock()
	p, ok := rt.plans.Get(sql)
	rt.planMu.Unlock()
	if ok {
		rt.c.planCacheHits.Add(1)
		return p, true, nil
	}
	p, err := rt.db.Prepare(sql)
	if err != nil {
		return nil, false, err
	}
	if rt.cfg.planCacheCapacity() <= 0 {
		rt.c.planCacheMisses.Add(1)
		return p, false, nil
	}
	rt.planMu.Lock()
	prev, lostRace := rt.plans.Get(sql)
	if !lostRace {
		rt.plans.Put(sql, p)
	}
	rt.planMu.Unlock()
	if lostRace {
		// A concurrent statement inserted the same text first: this one is
		// served the winner's plan from the cache, so it accounts as a hit
		// and misses stay one per plan actually inserted.
		rt.c.planCacheHits.Add(1)
		return prev, true, nil
	}
	rt.c.planCacheMisses.Add(1)
	return p, false, nil
}

func (rt *Runtime) submitPrepared(ctx context.Context, p *sqlfront.Prepared, opts Options, planState string, prepDur time.Duration) *Handle {
	h := &Handle{done: make(chan struct{})}
	client := opts.Client.orDefault()
	class := opts.Class.orDefault()
	rt.closeMu.RLock()
	defer rt.closeMu.RUnlock()
	if rt.closed {
		h.err = errClosed
		close(h.done)
		return h
	}
	if b := rt.quotaFor(client); b != nil {
		if retry, ok := b.admit(time.Now()); !ok {
			// Over quota: reject before the statement takes a queue slot.
			// Not counted as submitted — the statement never entered the
			// pipeline, so submitted == done stays an invariant of admitted
			// work only.
			rt.c.quotaRejections.Add(1)
			rt.clientMu.Lock()
			rt.clientLocked(client).quotaRejections++
			rt.clientMu.Unlock()
			h.err = &QuotaError{Client: client, RetryAfter: retry}
			close(h.done)
			return h
		}
	}
	rt.c.statementsSubmitted.Add(1)
	j := &job{ctx: ctx, p: p, opts: opts, h: h, client: client, class: class,
		enqueuedAt: time.Now(), planState: planState, prepDur: prepDur}
	if err := rt.queue.push(ctx, j); err != nil {
		// Admission blocked on a full queue and the statement died waiting
		// (or the runtime closed underneath it): fail fast instead of
		// holding the caller (and backpressure slot) until a worker frees
		// up. Counted as done so submitted == done still holds once the
		// fleet drains.
		rt.c.statementsDone.Add(1)
		if errors.Is(err, errClosed) {
			rt.c.statementsFailed.Add(1)
		} else {
			rt.c.statementsCanceled.Add(1)
		}
		h.err = err
		close(h.done)
	}
	return h
}

func failedHandle(err error) *Handle {
	h := &Handle{done: make(chan struct{}), err: err}
	close(h.done)
	return h
}

// worker executes admitted statements until the queue closes. Each statement
// runs through sqlfront's planner with the runtime's stage executor hooked
// in, so every LLM stage it reaches goes through the result cache, inflight
// dedup, and the cross-query batcher. Statements whose context died while
// queued fail fast without touching the planner, so a cancellation storm
// never wedges the pool.
func (rt *Runtime) worker() {
	defer rt.wg.Done()
	for {
		j, ok := rt.queue.pop()
		if !ok {
			return
		}
		wait := time.Since(j.enqueuedAt)
		rt.waitFor(j.class).observe(wait)
		if err := j.ctx.Err(); err != nil {
			rt.c.statementsDone.Add(1)
			rt.c.statementsCanceled.Add(1)
			rt.settleClient(j, nil, wait, 0, true)
			j.h.summary = StmtSummary{Client: j.client, Class: j.class, QueueWait: wait,
				Wall: wait + j.prepDur, JCTSeconds: 0, LLMCalls: 0, PromptTokens: 0}
			j.h.trace = rt.finishTrace(rt.traceRoot(j, wait), j, wait+j.prepDur, err)
			j.h.err = err
			close(j.h.done)
			continue
		}
		cfg := rt.cfg.Exec
		cfg.Naive = j.opts.Naive
		if j.opts.Policy != "" {
			cfg.Policy = j.opts.Policy
		}
		cfg.Backend = rt.servingBackend()
		if cfg.ReorderCache == nil {
			cfg.ReorderCache = rt.reorder
		}
		if cfg.PromptCache == nil {
			cfg.PromptCache = rt.prompts
		}
		cfg.StageRunner = rt.RunStage
		cfg.StageObserver = rt.observeStage
		root := rt.traceRoot(j, wait)
		si := &stmtInfo{client: j.client, class: j.class}
		start := time.Now()
		// The tenant identity also rides as backend.ClientInfo so a network
		// backend (cluster router → remote worker) attributes direct-path
		// batches to the originating client; the batcher re-derives it per
		// coalesced batch from its members.
		ectx := backend.WithClientInfo(j.ctx, backend.ClientInfo{Client: string(j.client), Class: string(j.class)})
		res, err := j.p.ExecContext(obs.With(withStmtInfo(ectx, si), root), cfg)
		jct := time.Since(start)
		rt.c.statementsDone.Add(1)
		canceled := false
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			rt.c.statementsCanceled.Add(1)
			canceled = true
		default:
			rt.c.statementsFailed.Add(1)
		}
		rt.settleClient(j, si, wait, jct, canceled)
		if b := rt.quotaFor(j.client); b != nil {
			b.debit(time.Now(), si.calls, si.tokens)
		}
		sum := StmtSummary{Client: j.client, Class: j.class, QueueWait: wait,
			Wall: j.prepDur + wait + jct, JCTSeconds: 0, LLMCalls: si.calls, PromptTokens: si.tokens}
		if res != nil {
			sum.JCTSeconds = res.JCT
		}
		j.h.summary = sum
		j.h.trace = rt.finishTrace(root, j, sum.Wall, err)
		j.h.res, j.h.err = res, err
		close(j.h.done)
	}
}

// traceRoot builds the recorder for one admitted statement — nil (the
// zero-cost path) unless the statement opted in with Options.Trace or the
// slow-query log is armed. The prepare and admission phases, measured
// before the recorder existed, are recorded retroactively.
func (rt *Runtime) traceRoot(j *job, wait time.Duration) *obs.Span {
	if !j.opts.Trace && rt.cfg.SlowQueryThreshold <= 0 {
		return nil
	}
	start := j.enqueuedAt.Add(-j.prepDur)
	root := obs.NewSpanAt("statement", start)
	root.Set("client", string(j.client))
	root.Set("class", string(j.class))
	root.ChildAt("prepare", start, j.prepDur).Set("planCache", j.planState)
	adm := root.ChildAt("admission", j.enqueuedAt, wait)
	if !rt.cfg.FIFOAdmission {
		adm.Set("drrRounds", j.drrRounds)
	}
	return root
}

// finishTrace closes and renders one settled statement's trace, retains it
// in the ring when the statement asked for it or crossed the slow-query
// threshold, and emits the slow-query log line. Returns the trace for the
// handle (nil when recording was only armed for the slow log and the
// statement was fast).
func (rt *Runtime) finishTrace(root *obs.Span, j *job, wall time.Duration, err error) *obs.Trace {
	if root == nil {
		return nil
	}
	root.End()
	slow := rt.cfg.SlowQueryThreshold > 0 && wall >= rt.cfg.SlowQueryThreshold
	if !j.opts.Trace && !slow {
		return nil
	}
	start := j.enqueuedAt.Add(-j.prepDur)
	tr := &obs.Trace{
		SQL:         j.p.SQL(),
		Client:      string(j.client),
		Class:       string(j.class),
		Start:       start,
		WallSeconds: wall.Seconds(),
		Slow:        slow,
		Spans:       root.Tree(start),
	}
	if err != nil {
		tr.Error = err.Error()
	}
	rt.traces.Add(tr)
	if slow && rt.cfg.SlowLogger != nil {
		rt.cfg.SlowLogger.Warn("slow statement",
			"sql", tr.SQL,
			"client", tr.Client,
			"class", tr.Class,
			"wallMs", float64(wall.Microseconds())/1e3,
			"error", tr.Error)
	}
	return tr
}

// settleClient folds one finished (or queue-canceled) statement into its
// client's accounting row. si is nil when the statement died before running.
func (rt *Runtime) settleClient(j *job, si *stmtInfo, wait, jct time.Duration, canceled bool) {
	rt.clientMu.Lock()
	cc := rt.clientLocked(j.client)
	cc.statements++
	if canceled {
		cc.canceled++
	}
	if si != nil {
		cc.llmCalls += si.calls
		cc.promptTokens += si.tokens
	}
	cc.jctMicros += jct.Microseconds()
	cc.queueWaitMicros += wait.Microseconds()
	rt.clientMu.Unlock()
}
