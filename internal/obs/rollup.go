package obs

import (
	"hash/fnv"
	"slices"
	"strconv"
	"sync"

	"repro/internal/lru"
	"repro/internal/stats"
)

// rollupSampleCap bounds the per-key JCT reservoir the p99 is computed
// over: a circular window of the most recent executions.
const rollupSampleCap = 256

// StageObservation is one executed LLM stage's observed statistics, as
// reported by the SQL executor after the statement's relational pruning has
// run: the ground truth the static cost model guessed at. RowsOut is -1
// when no WHERE conjunct consumed the stage's outputs (projections,
// aggregates), so selectivity is only learned from real filter prunes.
//
//llmqlint:accounting
type StageObservation struct {
	StageKey      string
	Name          string
	Dataset       string
	Rows          int
	RowsOut       int
	ModelCalls    int
	PromptTokens  int64
	MatchedTokens int64
	JCTSeconds    float64
	SolverSeconds float64
}

// Rollups accumulates per-StageKey statistics across statements: observed
// selectivity, latency (mean and p99 over a bounded reservoir), token and
// cache accounting. It is bounded: past limit distinct keys, a new key
// evicts the least recently observed one, so one-shot stages age out and a
// recurring stage that first appears after the store filled is still
// learned (the bound keeps /v1/metrics small).
type Rollups struct {
	mu sync.Mutex
	m  *lru.Map[string, *rollup] // guarded by mu; keyed by full StageKey
}

// rollup fields are owned by the enclosing Rollups' mutex — the struct has
// no lock of its own; all access goes through Rollups methods.
type rollup struct {
	id            string // shortID of the key, hashed once at insert
	name, dataset string

	count           int64
	rows            int64
	calls           int64
	promptTokens    int64
	matchedTokens   int64
	jctSeconds      float64
	solverSeconds   float64
	filteredRows    int64 // rows in, over executions whose outputs fed a prune
	filteredRowsOut int64 // rows surviving those prunes
	cacheHits       int64
	cacheMisses     int64
	inflightDeduped int64
	rowsDeduped     int64

	samples stats.Window[float64] // JCT reservoir for the p99
}

// NewRollups returns a store bounded to limit distinct stage keys
// (minimum 1).
func NewRollups(limit int) *Rollups {
	return &Rollups{m: lru.New[string, *rollup](limit)}
}

// Observe folds one stage execution into its key's rollup.
func (r *Rollups) Observe(ob StageObservation) {
	if r == nil || ob.StageKey == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ru := r.getLocked(ob.StageKey)
	if ru.name == "" {
		ru.name, ru.dataset = ob.Name, ob.Dataset
	}
	ru.count++
	ru.rows += int64(ob.Rows)
	ru.calls += int64(ob.ModelCalls)
	ru.promptTokens += ob.PromptTokens
	ru.matchedTokens += ob.MatchedTokens
	ru.jctSeconds += ob.JCTSeconds
	ru.solverSeconds += ob.SolverSeconds
	if ob.RowsOut >= 0 {
		ru.filteredRows += int64(ob.Rows)
		ru.filteredRowsOut += int64(ob.RowsOut)
	}
	ru.samples.Add(ob.JCTSeconds)
}

// ObserveCache folds one stage execution's result-cache outcomes into its
// key's rollup (the runtime's cache layer reports these; the executor
// cannot see them).
func (r *Rollups) ObserveCache(stageKey string, hits, misses, inflightDeduped, rowsDeduped int64) {
	if r == nil || stageKey == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ru := r.getLocked(stageKey)
	ru.cacheHits += hits
	ru.cacheMisses += misses
	ru.inflightDeduped += inflightDeduped
	ru.rowsDeduped += rowsDeduped
}

// getLocked resolves key's rollup as the most recently observed one,
// creating it on first sight (which, at a full store, evicts the least
// recently observed key).
//
//llmqlint:holds mu
func (r *Rollups) getLocked(key string) *rollup {
	ru, ok := r.m.Get(key)
	if !ok {
		ru = &rollup{id: shortID(key), samples: stats.NewWindow[float64](rollupSampleCap)}
		r.m.Put(key, ru)
	}
	return ru
}

// StageRollup is the exported per-StageKey aggregate merged into
// /v1/metrics — the feedback-store seed for learned optimization.
// Selectivity is observed rows-out / rows-in over filter-consumed
// executions (-1 when never observed); CacheHitRate is hits over cache
// lookups (hits + misses + inflight joins).
//
//llmqlint:accounting
type StageRollup struct {
	Name            string  `json:"name"`
	Dataset         string  `json:"dataset,omitempty"`
	Count           int64   `json:"count"`
	Rows            int64   `json:"rows"`
	LLMCalls        int64   `json:"llmCalls"`
	PromptTokens    int64   `json:"promptTokens"`
	MatchedTokens   int64   `json:"matchedTokens"`
	JCTSeconds      float64 `json:"jctSeconds"`
	SolverSeconds   float64 `json:"solverSeconds"`
	MeanJCTSeconds  float64 `json:"meanJctSeconds"`
	P99JCTSeconds   float64 `json:"p99JctSeconds"`
	Selectivity     float64 `json:"selectivity"`
	CacheHitRate    float64 `json:"cacheHitRate"`
	CacheHits       int64   `json:"cacheHits"`
	CacheMisses     int64   `json:"cacheMisses"`
	InflightDeduped int64   `json:"inflightDeduped"`
	RowsDeduped     int64   `json:"rowsDeduped"`
}

// Snapshot renders the rollups keyed by a short stable id (FNV-64a of the
// full StageKey, hex) — compact for metrics consumers while Name/Dataset
// keep rows human-readable.
func (r *Rollups) Snapshot() map[string]StageRollup {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m.Len() == 0 {
		return nil
	}
	out := make(map[string]StageRollup, r.m.Len())
	for _, ru := range r.m.All() {
		sr := StageRollup{
			Name:            ru.name,
			Dataset:         ru.dataset,
			Count:           ru.count,
			Rows:            ru.rows,
			LLMCalls:        ru.calls,
			PromptTokens:    ru.promptTokens,
			MatchedTokens:   ru.matchedTokens,
			JCTSeconds:      ru.jctSeconds,
			SolverSeconds:   ru.solverSeconds,
			MeanJCTSeconds:  0,
			P99JCTSeconds:   stats.Quantile(slices.Sorted(ru.samples.All()), 0.99),
			Selectivity:     -1,
			CacheHitRate:    0,
			CacheHits:       ru.cacheHits,
			CacheMisses:     ru.cacheMisses,
			InflightDeduped: ru.inflightDeduped,
			RowsDeduped:     ru.rowsDeduped,
		}
		if ru.count > 0 {
			sr.MeanJCTSeconds = ru.jctSeconds / float64(ru.count)
		}
		if ru.filteredRows > 0 {
			sr.Selectivity = float64(ru.filteredRowsOut) / float64(ru.filteredRows)
		}
		if lookups := ru.cacheHits + ru.cacheMisses + ru.inflightDeduped; lookups > 0 {
			sr.CacheHitRate = float64(ru.cacheHits) / float64(lookups)
		}
		out[ru.id] = sr
	}
	return out
}

// shortID is the display key: FNV-64a of the full stage fingerprint in
// hex. Collisions are astronomically unlikely at rollup cardinality, and
// Name/Dataset disambiguate for humans regardless.
func shortID(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key))
	return strconv.FormatUint(h.Sum64(), 16)
}
