package runtime

import (
	"context"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/sqlfront"
)

// hotStageStatements is the sharding workload: four clients whose
// statements all share ONE stage fingerprint (the same LLM call over the
// same schema), so the batch window coalesces them into a single hot batch —
// the traffic shape where the old design ran one sequential engine no
// matter how many workers were configured.
var hotStageStatements = []string{
	dashboardStatements[0], // emea
	dashboardStatements[1], // amer
	`SELECT ticket_id, LLM('Did the response resolve the request?', request, response) AS resolved
	 FROM tickets WHERE region = 'apac'`,
	`SELECT ticket_id, LLM('Did the response resolve the request?', request, response) AS resolved
	 FROM tickets`,
}

// runHotWorkload serves the hot-stage workload on a fresh runtime over be
// and returns the fleet metrics plus per-statement results.
func runHotWorkload(t testing.TB, be backend.Backend, rows int) (Metrics, []*sqlfront.Result) {
	t.Helper()
	db := newDB(rows)
	rt := New(db, Config{
		Workers:     len(hotStageStatements),
		BatchWindow: 60 * time.Millisecond,
		Backend:     be,
	})
	defer rt.Close()
	handles := make([]*Handle, len(hotStageStatements))
	for i, sql := range hotStageStatements {
		handles[i] = rt.Submit(sql, Options{})
	}
	results := make([]*sqlfront.Result, len(handles))
	for i, h := range handles {
		res, err := h.Wait()
		if err != nil {
			t.Fatalf("client %d (%q): %v", i, hotStageStatements[i], err)
		}
		results[i] = res
	}
	return rt.Metrics(), results
}

// TestShardedBeatsUnsharded is the tentpole's acceptance bar: on a 4-way
// concurrent hot-stage workload, serving with shards=4 must finish in
// strictly less total virtual JCT than shards=1 — while returning
// byte-identical relations and keeping at least 90% of the unsharded run's
// prefix hit tokens (cuts land only on prefix-group boundaries; the only
// loss is each shard warming the fixed prompt prefix).
func TestShardedBeatsUnsharded(t *testing.T) {
	const rows = 72
	baseM, baseRes := runHotWorkload(t, backend.NewSim(), rows)

	sh, err := backend.NewSharded(backend.NewSim(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	shardM, shardRes := runHotWorkload(t, sh, rows)

	for i := range baseRes {
		sameRelation(t, hotStageStatements[i], baseRes[i], shardRes[i])
	}
	if shardM.TotalJCT >= baseM.TotalJCT {
		t.Errorf("sharded JCT = %.2fs, want strictly below unsharded %.2fs",
			shardM.TotalJCT, baseM.TotalJCT)
	}
	if min := baseM.MatchedTokens * 9 / 10; shardM.MatchedTokens < min {
		t.Errorf("sharded hit tokens = %d, want >= 90%% of unsharded %d",
			shardM.MatchedTokens, baseM.MatchedTokens)
	}
	if shardM.ShardedBatches == 0 || shardM.ShardRuns < 2 {
		t.Errorf("no fan-out happened: %d sharded batches, %d shard runs",
			shardM.ShardedBatches, shardM.ShardRuns)
	}
	if shardM.ShardJCTSeconds <= shardM.TotalJCT {
		t.Errorf("summed shard JCT %.2fs should exceed the parallel (max-shard) total %.2fs",
			shardM.ShardJCTSeconds, shardM.TotalJCT)
	}
	t.Logf("JCT: unsharded %.2fs, sharded %.2fs (%d sub-runs over %d batches); hit tokens %d -> %d",
		baseM.TotalJCT, shardM.TotalJCT, shardM.ShardRuns, shardM.ShardedBatches,
		baseM.MatchedTokens, shardM.MatchedTokens)
}

// spanLikeBackend is the shape of a foreign decorator (perf's span
// recorder, a chaos wrapper): RunBatch, Close and Unwrap, nothing else.
type spanLikeBackend struct{ inner backend.Backend }

func (s spanLikeBackend) RunBatch(ctx context.Context, spec backend.BatchSpec) (backend.BatchResult, error) {
	return s.inner.RunBatch(ctx, spec)
}
func (s spanLikeBackend) Close() error            { return s.inner.Close() }
func (s spanLikeBackend) Unwrap() backend.Backend { return s.inner }

// TestShardStatsSeenThroughUnwrap: the runtime names no backend
// implementation, yet a Sharded under decorators still reports its counters
// in Totals — found through the Unwrap protocol alone.
func TestShardStatsSeenThroughUnwrap(t *testing.T) {
	sh, err := backend.NewSharded(backend.NewSim(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	m, _ := runHotWorkload(t, spanLikeBackend{spanLikeBackend{sh}}, 48)
	if got, want := m.ShardRuns, sh.Stats().ShardRuns; got == 0 || got != want {
		t.Errorf("Totals().ShardRuns = %d through two decorators, Sharded counted %d", got, want)
	}
}

// TestShardedOverPersistentPool composes the two tentpole pieces: a Sharded
// decorator over a Persistent replica pool. Shards of one hot batch share
// the stage key and land on the same replica pool; relations must stay
// identical and the parallel JCT must beat the unsharded persistent run.
// (How many replicas the pool actually grows depends on real-time overlap —
// a fast machine can drain sub-millisecond shard runs one after another —
// so replica growth under contention is pinned deterministically by the
// white-box pool tests in internal/backend, not here.)
func TestShardedOverPersistentPool(t *testing.T) {
	const rows = 72
	baseM, baseRes := runHotWorkload(t, backend.NewPersistent(0), rows)

	per := backend.NewPersistent(0)
	sh, err := backend.NewSharded(per, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	shardM, shardRes := runHotWorkload(t, sh, rows)

	for i := range baseRes {
		sameRelation(t, hotStageStatements[i], baseRes[i], shardRes[i])
	}
	if shardM.TotalJCT >= baseM.TotalJCT {
		t.Errorf("sharded-persistent JCT = %.2fs, want strictly below unsharded %.2fs",
			shardM.TotalJCT, baseM.TotalJCT)
	}
	t.Logf("JCT: persistent %.2fs, sharded-persistent %.2fs; replicas %d",
		baseM.TotalJCT, shardM.TotalJCT, per.Engines())
}

// TestReorderCacheRepeatedWindow is the serving-level satellite pin: with
// the result cache disabled (so rows recompute), an identical repeated
// batch window re-runs the engine but NOT the solver — GGR solves stay at 1
// while the second window is a reorder-cache hit.
func TestReorderCacheRepeatedWindow(t *testing.T) {
	db := newDB(36)
	rt := New(db, Config{Workers: 2, CacheCapacity: -1})
	defer rt.Close()
	sql := dashboardStatements[0]

	first, err := rt.Exec(sql, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m1 := rt.Metrics()
	if m1.ReorderSolves != 1 || m1.ReorderCacheHits != 0 {
		t.Fatalf("first window: solves=%d hits=%d, want 1/0", m1.ReorderSolves, m1.ReorderCacheHits)
	}
	second, err := rt.Exec(sql, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m2 := rt.Metrics()
	if m2.ReorderSolves != 1 {
		t.Errorf("repeated window re-solved: %d solves, want 1", m2.ReorderSolves)
	}
	if m2.ReorderCacheHits != 1 {
		t.Errorf("repeated window: %d reorder-cache hits, want 1", m2.ReorderCacheHits)
	}
	if m2.LLMCalls <= m1.LLMCalls {
		t.Errorf("result cache disabled but second window made no engine calls (%d then %d)",
			m1.LLMCalls, m2.LLMCalls)
	}
	sameRelation(t, sql, first, second)

	// The prompt memo must have served the second window's repeated texts.
	if m2.PromptCacheHits == 0 {
		t.Error("prompt tokenization memo saw no hits across identical windows")
	}
}

// TestReorderCacheDisabled pins the off switch: negative capacity reports
// no reorder accounting and still serves correctly.
func TestReorderCacheDisabled(t *testing.T) {
	db := newDB(12)
	rt := New(db, Config{Workers: 1, ReorderCacheCapacity: -1, PromptCacheCapacity: -1})
	defer rt.Close()
	if _, err := rt.Exec(dashboardStatements[0], Options{}); err != nil {
		t.Fatal(err)
	}
	m := rt.Metrics()
	if m.ReorderSolves != 0 || m.ReorderCacheHits != 0 || m.ReorderCacheMisses != 0 {
		t.Errorf("disabled reorder cache still accounted: %+v", m)
	}
	if m.PromptCacheHits != 0 || m.PromptCacheMisses != 0 {
		t.Errorf("disabled prompt cache still accounted: hits=%d misses=%d",
			m.PromptCacheHits, m.PromptCacheMisses)
	}
}
