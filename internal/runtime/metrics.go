package runtime

import (
	"sync/atomic"

	"repro/internal/obs"
)

// counters is the runtime's hot-path accounting. Everything is atomic so
// workers, batch flushes, and metric readers never contend on a lock.
type counters struct {
	statementsSubmitted atomic.Int64
	statementsDone      atomic.Int64
	statementsFailed    atomic.Int64
	statementsCanceled  atomic.Int64
	abandonedResolved   atomic.Int64

	planCacheHits   atomic.Int64
	planCacheMisses atomic.Int64

	cacheHits       atomic.Int64
	cacheMisses     atomic.Int64
	inflightDeduped atomic.Int64
	rowsDeduped     atomic.Int64

	batches         atomic.Int64
	coalescedRuns   atomic.Int64
	coalescedRows   atomic.Int64
	llmCalls        atomic.Int64
	jctMicros       atomic.Int64
	solverMicros    atomic.Int64
	promptTokens    atomic.Int64
	matchedTokens   atomic.Int64
	prefilledTokens atomic.Int64

	quotaRejections       atomic.Int64
	batchWindowsShortened atomic.Int64
	batchCloses           [numCloseReasons]atomic.Int64 // by closeReason
}

// Totals is the fixed-size part of the runtime's accounting: every field is
// a scalar read from an atomic, so a snapshot costs the same after a million
// statements as after one and takes no lock. Its JSON form is the "runtime"
// object of every /v1/sql response.
type Totals struct {
	// StatementsSubmitted / StatementsDone / StatementsFailed /
	// StatementsCanceled count statements through the admission queue
	// (failed and canceled are disjoint subsets of done; canceled means the
	// statement's context died — context.Canceled or DeadlineExceeded —
	// rather than execution erroring).
	StatementsSubmitted int64 `json:"statementsSubmitted"`
	StatementsDone      int64 `json:"statementsDone"`
	StatementsFailed    int64 `json:"statementsFailed"`
	StatementsCanceled  int64 `json:"statementsCanceled"`
	// AbandonedResolved counts result-cache reservations a canceled
	// statement left behind that the detached resolver settled when its
	// batch landed — the counter that proves cancellation leaks nothing.
	AbandonedResolved int64 `json:"abandonedResolved"`

	// PlanCacheHits / PlanCacheMisses count statement preparations served
	// from (or inserted into) the parse+plan cache.
	PlanCacheHits   int64 `json:"planCacheHits"`
	PlanCacheMisses int64 `json:"planCacheMisses"`

	// CacheHits / CacheMisses count per-row result-cache lookups.
	// InflightDeduped counts rows that piggybacked on an identical call
	// already being computed by a concurrent statement; RowsDeduped counts
	// duplicate rows collapsed within one stage.
	CacheHits       int64 `json:"cacheHits"`
	CacheMisses     int64 `json:"cacheMisses"`
	InflightDeduped int64 `json:"inflightDeduped"`
	RowsDeduped     int64 `json:"rowsDeduped"`

	// Batches counts engine runs; CoalescedRuns those that merged rows from
	// more than one statement, CoalescedRows the rows that rode in them.
	Batches       int64 `json:"batches"`
	CoalescedRuns int64 `json:"coalescedRuns"`
	CoalescedRows int64 `json:"coalescedRows"`
	// LLMCalls counts rows actually sent to the serving engine — the number
	// the result cache and both dedup layers exist to minimize.
	LLMCalls int64 `json:"llmCalls"`

	// ReorderCacheHits / ReorderCacheMisses count GGR reorder-cache lookups
	// by the stage scheduler; ReorderSolves the solver runs actually
	// performed (misses that reached GGR). A repeated batch window shows up
	// as hits > 0 with solves pinned.
	ReorderCacheHits   int64 `json:"reorderCacheHits"`
	ReorderCacheMisses int64 `json:"reorderCacheMisses"`
	ReorderSolves      int64 `json:"reorderSolves"`
	// PromptCacheHits / PromptCacheMisses count prompt-tokenization memo
	// lookups per prompt piece: every cell of every row sent to the model,
	// plus each stage's prefix and JSON punctuation (see
	// query.PromptTokens) — not one per row.
	PromptCacheHits   int64 `json:"promptCacheHits"`
	PromptCacheMisses int64 `json:"promptCacheMisses"`

	// ShardedBatches / ShardRuns / ShardJCTSeconds mirror the serving
	// backend's data-parallel accounting when it is a backend.Sharded:
	// batches split across engine replicas, sub-batches dispatched, and the
	// summed per-shard virtual JCT (ShardJCTSeconds / ShardRuns is the mean
	// per-shard latency; TotalJCT counts only the slowest shard of each
	// batch, so the difference is the parallel speedup).
	ShardedBatches  int64   `json:"shardedBatches"`
	ShardRuns       int64   `json:"shardRuns"`
	ShardJCTSeconds float64 `json:"shardJctSeconds"`

	// TotalJCT / TotalSolverSeconds sum virtual serving time and scheduling
	// time over engine runs, each run counted exactly once (per-statement
	// results instead attribute a shared batch to every participant).
	TotalJCT           float64 `json:"totalJctSeconds"`
	TotalSolverSeconds float64 `json:"totalSolverSeconds"`
	// PromptTokens / MatchedTokens / PrefilledTokens aggregate the engines'
	// prompt accounting; MatchedTokens/PromptTokens is the fleet-wide prefix
	// cache hit rate.
	PromptTokens    int64 `json:"promptTokens"`
	MatchedTokens   int64 `json:"matchedTokens"`
	PrefilledTokens int64 `json:"prefilledTokens"`

	// QuotaRejections counts statements refused admission because their
	// client's quota buckets were overdrawn (the /v1 429 path). They are NOT
	// part of StatementsSubmitted — a rejected statement never entered the
	// pipeline.
	QuotaRejections int64 `json:"quotaRejections"`
	// BatchWindowsShortened counts batch windows whose close was pulled
	// forward by a later joiner with a nearer horizon — an interactive
	// statement landing in a batch-class window, or a statement deadline
	// inside the window. It is the observable proof the batcher is SLO-aware.
	BatchWindowsShortened int64 `json:"batchWindowsShortened"`
	// BatchCloses* say why each engine run's batch window closed; they sum
	// to Batches. Timer: the window ran out (a zero window included). Cap:
	// the group reached its row cap. Idle: nobody was left who could join —
	// every unfinished statement was parked in a window, or every worker
	// was. Pulled: a horizon nearer than the window ran out — a joiner's
	// (interactive class) or any member's deadline. Shutdown: Close drained the group.
	BatchClosesTimer    int64 `json:"batchClosesTimer"`
	BatchClosesCap      int64 `json:"batchClosesCap"`
	BatchClosesIdle     int64 `json:"batchClosesIdle"`
	BatchClosesPulled   int64 `json:"batchClosesPulled"`
	BatchClosesShutdown int64 `json:"batchClosesShutdown"`
}

// Metrics is a point-in-time snapshot of the runtime's whole accounting:
// the fixed-size Totals plus the breakdowns whose size grows with served
// history (Stages) or with the fleet (Clients, QueueWait). Totals is
// embedded, so the JSON object stays flat. GET /v1/metrics serves it, with
// the router's section appended when one is attached (server.Metrics).
type Metrics struct {
	Totals

	// Clients breaks the fleet accounting down by tenant; nil until the
	// first statement is admitted. Keys are normalized ClientIDs (anonymous
	// traffic accounts under DefaultClient).
	Clients map[ClientID]ClientMetrics `json:"clients,omitempty"`
	// QueueWait is the admission-queue wait histogram by service class; nil
	// until a statement has been through the queue. Under a fair scheduler
	// the interactive histogram stays low-bucketed even when the batch one
	// grows a tail — the QoS property in one map.
	QueueWait map[Class]WaitHistogram `json:"queueWait,omitempty"`
	// Stages is the per-StageKey rollup of observed execution statistics —
	// count, rows, latency (mean/p99), observed selectivity, cache hit rate
	// — keyed by a short fingerprint hash. It is the feedback store seed
	// for learned optimization (ROADMAP item 5): the observed selectivities
	// and latencies a future planner re-ranks cascades with. Nil until an
	// LLM stage has executed.
	Stages map[string]obs.StageRollup `json:"stages,omitempty"`
}

// ClientMetrics is one client's slice of the fleet accounting.
//
//llmqlint:accounting
type ClientMetrics struct {
	// Statements counts the client's admitted statements that reached a
	// terminal state; Canceled the subset whose context died; QuotaRejections
	// the refused admissions (not part of Statements).
	Statements      int64 `json:"statements"`
	Canceled        int64 `json:"canceled"`
	QuotaRejections int64 `json:"quotaRejections"`
	// LLMCalls / PromptTokens are the model rows and prompt tokens the
	// client's statements were charged — coalesced batches are attributed
	// proportionally by row share, so the fleet total is conserved.
	LLMCalls     int64 `json:"llmCalls"`
	PromptTokens int64 `json:"promptTokens"`
	// JCTSeconds / QueueWaitSeconds sum execution and admission-queue time
	// over the client's statements.
	JCTSeconds       float64 `json:"jctSeconds"`
	QueueWaitSeconds float64 `json:"queueWaitSeconds"`
}

// WaitHistogram is a fixed-bucket admission-wait distribution. Buckets are
// cumulative-exclusive counts (a 5ms wait lands in Le10ms only).
//
//llmqlint:accounting
type WaitHistogram struct {
	Count       int64 `json:"count"`
	TotalMicros int64 `json:"totalMicros"`
	Le1ms       int64 `json:"le1ms"`
	Le10ms      int64 `json:"le10ms"`
	Le100ms     int64 `json:"le100ms"`
	Le1s        int64 `json:"le1s"`
	Over1s      int64 `json:"over1s"`
}

func (c *counters) snapshot() Totals {
	return Totals{
		StatementsSubmitted: c.statementsSubmitted.Load(),
		StatementsDone:      c.statementsDone.Load(),
		StatementsFailed:    c.statementsFailed.Load(),
		StatementsCanceled:  c.statementsCanceled.Load(),
		AbandonedResolved:   c.abandonedResolved.Load(),
		PlanCacheHits:       c.planCacheHits.Load(),
		PlanCacheMisses:     c.planCacheMisses.Load(),
		CacheHits:           c.cacheHits.Load(),
		CacheMisses:         c.cacheMisses.Load(),
		InflightDeduped:     c.inflightDeduped.Load(),
		RowsDeduped:         c.rowsDeduped.Load(),
		Batches:             c.batches.Load(),
		CoalescedRuns:       c.coalescedRuns.Load(),
		CoalescedRows:       c.coalescedRows.Load(),
		LLMCalls:            c.llmCalls.Load(),
		TotalJCT:            float64(c.jctMicros.Load()) / 1e6,
		TotalSolverSeconds:  float64(c.solverMicros.Load()) / 1e6,
		PromptTokens:        c.promptTokens.Load(),
		MatchedTokens:       c.matchedTokens.Load(),
		PrefilledTokens:     c.prefilledTokens.Load(),

		QuotaRejections:       c.quotaRejections.Load(),
		BatchWindowsShortened: c.batchWindowsShortened.Load(),
		BatchClosesTimer:      c.batchCloses[closeTimer].Load(),
		BatchClosesCap:        c.batchCloses[closeCap].Load(),
		BatchClosesIdle:       c.batchCloses[closeIdle].Load(),
		BatchClosesPulled:     c.batchCloses[closePulled].Load(),
		BatchClosesShutdown:   c.batchCloses[closeShutdown].Load(),
	}
}
