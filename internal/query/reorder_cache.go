package query

import (
	"hash/fnv"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/lru"
	"repro/internal/table"
	"repro/internal/tokenizer"
)

// This file amortizes the two per-flush planning costs that data-parallel
// sharding exposes once engine time stops dominating: the GGR solve over the
// batch window's combined table, and prompt tokenization.
//
// Both caches are opt-in via Config (nil keeps the historical
// compute-every-time behavior); the serving runtime attaches one of each for
// its lifetime, so a dashboard fleet re-submitting the same batch window
// pays the solver and the tokenizer walk once.

// DefaultReorderCacheCapacity bounds the reorder cache in schedules.
const DefaultReorderCacheCapacity = 256

// DefaultPromptCacheCapacity bounds the prompt cache in distinct pieces
// (cells and stage prefixes).
const DefaultPromptCacheCapacity = 65536

// reorderKey identifies one solve: the stage fingerprint (prompt, schema,
// policy, solver options — see StageKey) plus a 128-bit content hash of the
// table the solver would run over (cells in order, plus the FD groups that
// steer GGR's column scoring). Two independent FNV-64 streams make an
// accidental collision astronomically unlikely; a collision is not silent
// corruption regardless, because RunStageContext verifies every schedule
// against its table (core.Verify) before serving it.
type reorderKey struct {
	stageKey string
	h1, h2   uint64
}

func reorderKeyFor(stageKey string, tbl *table.Table) reorderKey {
	a, b := fnv.New64a(), fnv.New64()
	var sep = []byte{0}
	write := func(s string) {
		a.Write([]byte(s))
		a.Write(sep)
		b.Write([]byte(s))
		b.Write(sep)
	}
	for _, c := range tbl.Columns() {
		write(c)
	}
	for i := 0; i < tbl.NumRows(); i++ {
		for _, cell := range tbl.Row(i) {
			write(cell)
		}
	}
	for _, group := range tbl.FDs().Groups() {
		write("fd")
		for _, col := range group {
			write(col)
		}
	}
	return reorderKey{stageKey: stageKey, h1: a.Sum64(), h2: b.Sum64()}
}

// ReorderCache memoizes GGR solves by (StageKey, table-content hash): a
// batch window identical to an earlier one — same stage, same rows in the
// same order — reuses the earlier schedule instead of re-running the solver.
// Entries are LRU-evicted past capacity. Cached schedules are shared, never
// copied: every consumer treats a core.Schedule as immutable.
type ReorderCache struct {
	mu  sync.Mutex
	lru *lru.Map[reorderKey, reorderEntry] // guarded by mu

	hits   atomic.Int64
	misses atomic.Int64
	solves atomic.Int64
}

type reorderEntry struct {
	sched *core.Schedule
	phc   int64
}

// NewReorderCache returns a cache bounded to capacity schedules (<= 0 uses
// DefaultReorderCacheCapacity).
func NewReorderCache(capacity int) *ReorderCache {
	if capacity <= 0 {
		capacity = DefaultReorderCacheCapacity
	}
	return &ReorderCache{lru: lru.New[reorderKey, reorderEntry](capacity)}
}

// ReorderStats is the cache's accounting: Hits and Misses count lookups,
// Solves the GGR runs performed on misses (the counter the repeated-window
// regression tests pin to 1).
type ReorderStats struct {
	Hits   int64
	Misses int64
	Solves int64
}

// Stats snapshots the counters.
func (c *ReorderCache) Stats() ReorderStats {
	return ReorderStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Solves: c.solves.Load()}
}

// Len reports the number of cached schedules.
func (c *ReorderCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

func (c *ReorderCache) lookup(key reorderKey) (*core.Schedule, int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ent, ok := c.lru.Get(key); ok {
		c.hits.Add(1)
		return ent.sched, ent.phc, true
	}
	c.misses.Add(1)
	return nil, 0, false
}

func (c *ReorderCache) store(key reorderKey, sched *core.Schedule, phc int64) {
	c.solves.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	// A concurrent solve that won the race stored an equal schedule.
	c.lru.Put(key, reorderEntry{sched: sched, phc: phc})
}

// PromptCache memoizes prompt tokenization over the package's one
// long-lived tokenizer.
// The unit is the prompt piece (see PromptTokens): one entry per distinct
// cell — a (field, value) pair, tokenized as RowJSON serializes it — so a
// value that repeats down a column is walked once across every row, stage
// and batch window that serves it. A stage prefix is tokenized on the shared
// tokenizer but not memoized (see promptEncoder.prefix). Sharing one
// tokenizer also makes token IDs stable across batches and across caches —
// which is what a persistent backend's cross-batch KV cache compares, under
// a batch key that names no cache — where per-stage throwaway tokenizers
// gave the same text a different ID in every batch.
//
// Returned token slices are shared and must be treated as immutable (every
// caller copies them into a fresh prompt slice). The memo is LRU-bounded;
// the tokenizer's interned vocabulary grows with distinct text for the life
// of the process, which is the growth one kvcache trie already exhibits for
// the same traffic.
type PromptCache struct {
	tok *tokenizer.Tokenizer
	mu  sync.Mutex
	lru *lru.Map[promptPiece, []tokenizer.Token] // guarded by mu

	hits   atomic.Int64
	misses atomic.Int64
}

// promptTokenizer backs every PromptCache, so equal text has equal ids in
// every cache.
var promptTokenizer = tokenizer.New()

// NewPromptCache returns a cache bounded to capacity distinct pieces (<= 0
// uses DefaultPromptCacheCapacity).
func NewPromptCache(capacity int) *PromptCache {
	if capacity <= 0 {
		capacity = DefaultPromptCacheCapacity
	}
	return &PromptCache{
		tok: promptTokenizer,
		lru: lru.New[promptPiece, []tokenizer.Token](capacity),
	}
}

// encode tokenizes one prompt piece through the memo. The returned slice is
// shared: callers must not modify it.
func (p *PromptCache) encode(piece promptPiece) []tokenizer.Token {
	p.mu.Lock()
	if toks, ok := p.lru.Get(piece); ok {
		p.mu.Unlock()
		p.hits.Add(1)
		return toks
	}
	p.mu.Unlock()

	// Tokenize outside the memo lock: Tokenizer has its own, and a slow walk
	// must not serialize concurrent encoders of other pieces.
	toks := p.tok.Encode(piece.text())
	p.misses.Add(1)

	p.mu.Lock()
	p.lru.Put(piece, toks)
	p.mu.Unlock()
	return toks
}

// Hits and Misses report the memo's lookup accounting.
func (p *PromptCache) Hits() int64   { return p.hits.Load() }
func (p *PromptCache) Misses() int64 { return p.misses.Load() }

// Len reports the number of memoized pieces.
func (p *PromptCache) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lru.Len()
}
