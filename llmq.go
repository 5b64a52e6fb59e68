// Package llmq is the public API of the reproduction of "Optimizing LLM
// Queries in Relational Data Analytics Workloads" (MLSys 2025).
//
// The library reorders the rows of a relational table — and, independently
// per row, the fields within each row — so that consecutive LLM requests
// share the longest possible prompt prefixes, maximizing KV-cache reuse in a
// serving engine and cached-token discounts on commercial APIs.
//
// Typical use:
//
//	t := llmq.NewTable("product", "review")
//	t.MustAppendRow("Widget", "Great value for money")
//	...
//	res, err := llmq.Reorder(t, llmq.ReorderOptions{})
//	// res.Schedule lists the rows in serving order, each with its own
//	// field order; res.PHC is the prefix hit count achieved.
//
// Higher layers expose the paper's full evaluation stack: the 16-query
// benchmark (RunQuery), the synthetic datasets (Dataset/RAGDataset), the
// vLLM-style serving simulator, API cost models (EstimateSavings), and every
// table/figure runner (RunExperiment).
//
// Execution is pluggable behind the Backend seam (a database/sql-driver-
// style interface): every layer — direct stages, LLM-SQL, prepared
// statements, the concurrent runtime, and the HTTP service — hands its
// scheduled batches to a Backend instead of constructing engines inline.
// NewSimBackend reproduces the paper's one-engine-per-batch setting (the
// default), NewPersistentBackend keeps pools of long-lived engine replicas
// whose KV caches survive between batches so prefix hits span batch
// windows, NewShardedBackend fans one batch out over concurrent engine runs
// at its prefix-group boundaries, and NewRecordingBackend taps batches for
// tests and metrics. Every execution
// entry point has a Context variant (ExecSQLContext, RunQueryContext,
// Runtime.SubmitContext/ExecContext, ...): canceling the context stops the
// statement between LLM stages and mid-batch, returning an error wrapping
// context.Canceled.
package llmq

import (
	"context"
	"fmt"

	"repro/internal/backend"
	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/pricing"
	"repro/internal/query"
	"repro/internal/runtime"
	"repro/internal/sqlfront"
	"repro/internal/table"
	"repro/internal/tokenizer"
)

// Table is a column-named row store; see NewTable.
type Table = table.Table

// FDSet declares bidirectional functional dependencies between columns.
type FDSet = table.FDSet

// Schedule is a reordered request list: rows in serving order, each with its
// own field order.
type Schedule = core.Schedule

// ReorderResult carries the schedule and its prefix hit count.
type ReorderResult = core.Result

// NewTable creates an empty table with the given columns.
func NewTable(cols ...string) *Table { return table.New(cols...) }

// NewFDSet creates an empty functional-dependency set; attach it to a table
// with Table.SetFDs.
func NewFDSet() *FDSet { return table.NewFDSet() }

// Algorithm selects the reordering solver.
type Algorithm string

const (
	// GGR is Greedy Group Recursion (Algorithm 1) — the practical solver.
	GGR Algorithm = "ggr"
	// OPHR is the exact, exponential-time solver; small tables only.
	OPHR Algorithm = "ophr"
	// BestFixed uses one statistics-chosen field order for all rows.
	BestFixed Algorithm = "bestfixed"
)

// ReorderOptions configures Reorder. The zero value runs GGR with the
// paper's evaluation settings (FDs on, row depth 4, column depth 2, 0.1M
// hit-count threshold) over token lengths.
type ReorderOptions struct {
	Algorithm Algorithm
	// Exhaustive disables GGR early stopping (ignored for other algorithms).
	Exhaustive bool
	// CharLengths measures PHC in bytes instead of tokens.
	CharLengths bool
	// DisableFDs ignores the table's functional dependencies.
	DisableFDs bool
	// OPHRNodeBudget bounds the exact solver (default 5e6 nodes).
	OPHRNodeBudget int64
}

// Reorder computes a cache-maximizing request schedule for t. The schedule
// is verified to preserve query semantics (every row exactly once, each
// row's cells a permutation of the original) before it is returned.
func Reorder(t *Table, opt ReorderOptions) (*ReorderResult, error) {
	lenOf := table.LenFunc(tokenizer.Count)
	if opt.CharLengths {
		lenOf = table.CharLen
	}
	return core.Solve(t, string(opt.Algorithm), core.SolveOptions{
		LenOf:          lenOf,
		Exhaustive:     opt.Exhaustive,
		DisableFDs:     opt.DisableFDs,
		OPHRNodeBudget: opt.OPHRNodeBudget,
	})
}

// PHC computes the prefix hit count (Eq. 1–2 of the paper) of a schedule in
// token units.
func PHC(s *Schedule) int64 { return core.PHC(s, TokenLen) }

// HitRate estimates the fraction of data tokens an adjacent-row prefix cache
// would reuse under this schedule.
func HitRate(s *Schedule) float64 { return core.Hits(s, TokenLen).Rate() }

// OriginalSchedule is the identity schedule (no reordering) — the baseline.
func OriginalSchedule(t *Table) *Schedule { return core.Original(t) }

// Advice is the reorder-or-not verdict computed from table statistics alone.
type Advice = core.Advice

// Advise estimates, without running a solver, whether reordering t is worth
// the scheduling overhead: how much of the table's token mass is repeated
// and how much of that the current layout already exploits. sampleRows
// bounds the statistics scan (0 = all rows).
func Advise(t *Table, sampleRows int) Advice {
	return core.Advise(t, TokenLen, sampleRows)
}

// TokenLen counts tokens in a value with the library's deterministic
// tokenizer.
func TokenLen(v string) int { return tokenizer.Count(v) }

// --- benchmark suite --------------------------------------------------------

// QuerySpec describes one of the 16 benchmark queries; Policy and
// QueryConfig parameterize execution against the serving simulator.
type (
	QuerySpec   = query.Spec
	Policy      = query.Policy
	QueryConfig = query.Config
	QueryResult = query.Result
)

// Execution policies (Sec. 6.1.3 baselines).
const (
	PolicyNoCache       = query.NoCache
	PolicyCacheOriginal = query.CacheOriginal
	PolicyCacheGGR      = query.CacheGGR
)

// Queries lists the 16-query benchmark suite.
func Queries() []QuerySpec { return query.Specs() }

// QueryByName resolves a benchmark query.
func QueryByName(name string) (QuerySpec, error) { return query.ByName(name) }

// RunQuery executes a benchmark query over t under cfg (model, cluster, and
// scheduling policy) on the serving simulator.
func RunQuery(spec QuerySpec, t *Table, cfg QueryConfig) (*QueryResult, error) {
	//llmqlint:detached -- no-cancellation convenience wrapper over RunQueryContext
	return RunQueryContext(context.Background(), spec, t, cfg)
}

// RunQueryContext is RunQuery honoring ctx: cancellation is checked before
// every stage and between engine steps within one.
func RunQueryContext(ctx context.Context, spec QuerySpec, t *Table, cfg QueryConfig) (*QueryResult, error) {
	return query.RunContext(ctx, spec, t, cfg)
}

// --- datasets ----------------------------------------------------------------

// Dataset generates one of the paper's five relational datasets ("Movies",
// "Products", "BIRD", "PDMX", "Beer") at the given scale (1.0 = paper size).
func Dataset(name string, scale float64, seed int64) (*Table, error) {
	d, err := datagen.RelationalByName(name, datagen.Options{Scale: scale, Seed: seed})
	if err != nil {
		return nil, err
	}
	return d.Table, nil
}

// RAGDataset generates "FEVER" or "SQuAD" and materializes the retrieval
// join (question plus top-k contexts per row).
func RAGDataset(name string, scale float64, seed int64) (*Table, error) {
	d, err := datagen.RAGByName(name, datagen.Options{Scale: scale, Seed: seed})
	if err != nil {
		return nil, err
	}
	return query.BuildRAGTable(d)
}

// --- pricing -----------------------------------------------------------------

// PriceBook is a provider price card; the two cards of the paper's cost
// study are exported as GPT4oMini and Claude35Sonnet.
type PriceBook = pricing.Book

// Provider price cards (Sec. 6.3).
var (
	GPT4oMini      = pricing.GPT4oMini
	Claude35Sonnet = pricing.Claude35Sonnet
)

// EstimateSavings computes the relative input-cost reduction of moving from
// one prefix hit rate to another under a provider's caching prices
// (Table 4's arithmetic).
func EstimateSavings(book PriceBook, hitRateBefore, hitRateAfter float64) float64 {
	return pricing.EstimatedSavings(book, hitRateBefore, hitRateAfter)
}

// --- LLM-SQL -------------------------------------------------------------------

// SQLDB is a registry of named tables for LLM-SQL statements; SQLResult an
// executed statement's relation plus serving statistics. SQLConfig carries
// the serving config and the Naive toggle; stage output lengths are fixed at
// Table 1's regimes (sqlfront's filterOut / projOut / aggOut: 2 / 40 / 2).
type (
	SQLDB     = sqlfront.DB
	SQLConfig = sqlfront.ExecConfig
	SQLResult = sqlfront.Result
)

// NewSQLDB returns an empty LLM-SQL database. Register every table a
// statement's FROM clause names, then Exec: statements may join any number
// of registered tables with inner equi-joins
// (FROM t1 AS a JOIN t2 AS b ON a.k = b.k), qualifying columns as
// alias.column anywhere a column is legal.
func NewSQLDB() *SQLDB { return sqlfront.NewDB() }

// ExecSQL is the single-table convenience: it runs one LLM-SQL statement
// against exactly one table, registered under tableName for the call's
// duration. Statements whose FROM clause joins several tables are rejected
// with an error pointing at SQLDB — build one with NewSQLDB, Register each
// table, and call its Exec instead.
//
// The dialect (see the sqlfront package comment for the full EBNF) is the
// paper's interface grown into a small analytics language:
//
//	SELECT ticket_id, LLM('Did it help?', response, request) AS ok
//	FROM tickets
//	WHERE region = 'emea' AND LLM('Spam?', request) <> 'Yes'
//
//	SELECT region, COUNT(*) AS n, AVG(LLM('Rate 1-5', request)) AS score
//	FROM tickets GROUP BY region ORDER BY n DESC LIMIT 3
//
// SELECT lists mix plain columns, LLM('prompt', fields...) calls, and the
// aggregates COUNT/SUM/MIN/MAX/AVG (COUNT(*) included); WHERE clauses are
// AND/OR/NOT trees over LLM and plain-column comparisons (=, <>, <, <=, >,
// >=) against string or numeric literals; HAVING filters groups on
// aggregate outputs, and ORDER BY takes multiple keys. Every statement
// passes through a logical planner that
// pushes LLM-free predicates below any model call (and, on a SQLDB, below
// the join), runs each distinct LLM call exactly once per statement, and
// cascades multiple LLM filters cheapest-first; set SQLConfig.Naive to true
// to bypass the optimizations and measure their benefit.
func ExecSQL(sql string, tableName string, t *Table, cfg SQLConfig) (*SQLResult, error) {
	//llmqlint:detached -- no-cancellation convenience wrapper over ExecSQLContext
	return ExecSQLContext(context.Background(), sql, tableName, t, cfg)
}

// ExecSQLContext is ExecSQL honoring ctx: cancellation is checked before
// every LLM stage and between engine steps within one, returning an error
// wrapping ctx.Err().
func ExecSQLContext(ctx context.Context, sql string, tableName string, t *Table, cfg SQLConfig) (*SQLResult, error) {
	q, err := sqlfront.Parse(sql)
	if err != nil {
		return nil, err
	}
	if n := len(q.From); n > 1 {
		return nil, fmt.Errorf("llmq: ExecSQL executes against a single table, but the statement joins %d; register each table on a SQLDB (NewSQLDB) and use its Exec", n)
	}
	db := NewSQLDB()
	db.Register(tableName, t)
	return db.ExecParsedContext(ctx, q, cfg)
}

// --- engine backends -----------------------------------------------------------

// Backend is the pluggable execution boundary between every query layer and
// an LLM serving engine, in the style of a database/sql driver: the layers
// above decide what to serve (rows, order, per-row output budgets, as a
// BatchSpec) and the backend decides where and how. Backends change serving
// cost only — answers are content-keyed above the seam, so result relations
// are byte-identical across backends. Set one on QueryConfig.Backend (LLM-
// SQL inherits it through SQLConfig) or RuntimeConfig.Backend; nil means a
// fresh confined engine per batch, the paper's setting.
type (
	Backend     = backend.Backend
	BatchSpec   = backend.BatchSpec
	BatchResult = backend.BatchResult
	// SimBackend is the per-batch engine; PersistentBackend keeps a pool
	// of long-lived engine replicas per stage fingerprint so the prefix
	// cache survives between batches and concurrent batches overlap;
	// ShardedBackend fans one batch out over concurrent engine runs at its
	// prefix-group boundaries; RecordingBackend decorates another backend
	// with a batch log for tests and metrics.
	SimBackend        = backend.Sim
	PersistentBackend = backend.Persistent
	ShardedBackend    = backend.Sharded
	RecordingBackend  = backend.Recording
	RecordedBatch     = backend.RecordedBatch
	// RemoteBackend serves batches on a cluster worker over POST /v1/batch;
	// ClusterRouter consistent-hashes stage fingerprints across a worker
	// fleet (stage-affine placement, whole batches on the wire, health-checked
	// failover; each worker shards what it receives across its own engine
	// replicas). Both implement Backend; see internal/cluster. ClusterConfig
	// sizes what deployments vary; the probe timeout, the breaker's window /
	// rate / cooldown and the retry budget are constants there (healthTimeout,
	// breakerWindow …, retryBudgetRatio / retryBudgetBurst), and a primary
	// replicates once it has Capacity whole batches in flight.
	RemoteBackend       = backend.Remote
	RemoteBackendConfig = backend.RemoteConfig
	ClusterRouter       = cluster.Router
	ClusterConfig       = cluster.Config
)

// NewSimBackend returns the default per-batch backend: one confined engine
// and KV cache per scheduled batch, exactly the paper's evaluation setting.
func NewSimBackend() *SimBackend { return backend.NewSim() }

// NewPersistentBackend returns a backend that serves each stage fingerprint
// on a pool of long-lived engine replicas whose KV caches survive between
// batches, so prefix hits span batch windows and statements while
// concurrent batches on one hot stage overlap on separate replicas. It
// retains at most engineBudget replicas, evicted LRU (<= 0 uses the default
// budget). Close it to release the engines.
func NewPersistentBackend(engineBudget int) *PersistentBackend {
	return backend.NewPersistent(engineBudget)
}

// NewShardedBackend wraps inner (nil wraps a fresh sim backend) with a
// data-parallel fan-out: each batch is split at its prefix-group boundaries
// into up to shards balanced sub-batches served concurrently, cutting batch
// latency while keeping relations byte-identical. shards < 1 is an error.
func NewShardedBackend(inner Backend, shards int) (*ShardedBackend, error) {
	return backend.NewSharded(inner, shards)
}

// NewRecordingBackend decorates inner (nil wraps a fresh sim backend) with
// a log of every batch served — stage key, rows, output budgets, engine
// metrics — for tests and metrics pipelines.
func NewRecordingBackend(inner Backend) *RecordingBackend { return backend.NewRecording(inner) }

// NewRemoteBackend returns a backend serving every batch on the cluster
// worker at cfg.Addr over POST /v1/batch, with context deadline propagation
// and bounded retries on transient failures. Start the worker with
// `llmqserve -worker`.
func NewRemoteBackend(cfg RemoteBackendConfig) (*RemoteBackend, error) { return backend.NewRemote(cfg) }

// NewClusterRouter returns the fleet backend: batches are consistent-hashed
// by stage fingerprint onto the worker ring so persistent engines stay
// stage-affine across nodes, sent whole to the worker that owns the stage
// (which shards them across its own replicas), split in two with the ring
// successor off a saturated primary, and failed over past dead or draining
// workers.
func NewClusterRouter(cfg ClusterConfig) (*ClusterRouter, error) { return cluster.NewRouter(cfg) }

// --- serving runtime -----------------------------------------------------------

// Runtime is the concurrent LLM-SQL serving layer: statements submitted
// from any number of goroutines run on a bounded worker pool; pending LLM
// calls that share a prompt coalesce across queries into GGR-ordered
// batches; an exact-match result cache plus inflight dedup keep repeated
// statements from paying for the same model call twice; and Prepare/Execute
// handles skip parse and planning on every rerun. See internal/runtime for
// the architecture. RuntimeConfig sizes what deployments vary; the DRR
// quantums (interactiveWeight : batchWeight = 4 : 1) and the 4096-row batch
// cap (maxBatchRows) are constants there.
type (
	Runtime        = runtime.Runtime
	RuntimeConfig  = runtime.Config
	RuntimeOptions = runtime.Options
	RuntimeMetrics = runtime.Metrics
)

// Admission is multi-tenant: every statement runs on behalf of a ClientID in
// a service Class, the admission scheduler shares workers weighted-fairly
// across (client, class) flows, per-client quotas answer overdraw with a
// QuotaError carrying a retry horizon, and RuntimeMetrics breaks calls,
// tokens, and queue waits down per client. ClientID is the one identity type
// used across the runtime, the HTTP server, and metrics.
type (
	ClientID      = runtime.ClientID
	Class         = runtime.Class
	ClientQuota   = runtime.Quota
	QuotaError    = runtime.QuotaError
	ClientStats   = runtime.ClientMetrics
	WaitHistogram = runtime.WaitHistogram
)

// Observability: setting RuntimeOptions.Trace (or options.trace on the HTTP
// API) records a span-per-stage execution trace — EXPLAIN ANALYZE for an
// LLM-SQL statement — retrievable from the statement's Handle as a Trace
// whose span tree conserves the statement's charged totals (LLM calls,
// prompt tokens, JCT). Independent of per-statement tracing, the runtime
// aggregates per-StageKey rollups (selectivity, cache hit rate, JCT
// percentiles) surfaced in RuntimeMetrics.Stages, and a slow-query log
// captures statements over RuntimeConfig.SlowQueryThreshold in a bounded
// ring (Runtime.Traces, GET /v1/traces).
type (
	Trace       = obs.Trace
	TraceSpan   = obs.SpanTree
	StageRollup = obs.StageRollup
	StmtSummary = runtime.StmtSummary
)

// Service classes: interactive statements get the high admission weight and
// the short coalescing window (joining one even closes a batch-held window
// early); batch statements wait longer to coalesce more.
const (
	ClassInteractive = runtime.ClassInteractive
	ClassBatch       = runtime.ClassBatch
	// DefaultClient is the identity anonymous statements are accounted to.
	DefaultClient = runtime.DefaultClient
)

// ParseClass resolves the wire form of a service class ("" means
// interactive).
func ParseClass(s string) (Class, error) { return runtime.ParseClass(s) }

// NewRuntime starts a serving runtime over a SQL database. Close it to
// drain the worker pool.
func NewRuntime(db *SQLDB, cfg RuntimeConfig) *Runtime { return runtime.New(db, cfg) }

// --- experiment harness --------------------------------------------------------

// ExperimentConfig scales an experiment run; ExperimentReport is its rendered
// result.
type (
	ExperimentConfig = bench.Config
	ExperimentReport = bench.Report
)

// Experiments lists every reproducible table/figure ID.
func Experiments() []string { return bench.Experiments() }

// RunExperiment regenerates one of the paper's tables or figures.
func RunExperiment(id string, cfg ExperimentConfig) (*ExperimentReport, error) {
	//llmqlint:detached -- no-cancellation convenience wrapper over RunExperimentContext
	return RunExperimentContext(context.Background(), id, cfg)
}

// RunExperimentContext is RunExperiment honoring ctx: a canceled context
// stops the experiment at its next simulated query.
func RunExperimentContext(ctx context.Context, id string, cfg ExperimentConfig) (*ExperimentReport, error) {
	return bench.RunContext(ctx, id, cfg)
}
