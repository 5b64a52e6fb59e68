package query

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/table"
)

func cacheTestTable(rows int, salt string) *table.Table {
	t := table.New("id", "group", "text")
	for i := 0; i < rows; i++ {
		t.MustAppendRow(
			fmt.Sprintf("id-%03d%s", i, salt),
			fmt.Sprintf("grp-%d", i%3),
			fmt.Sprintf("some longer payload text %d about topic %d", i%5, i%3),
		)
	}
	return t
}

func cacheTestSpec(prompt string) Spec {
	return Spec{
		Name: "reorder-cache-test", Dataset: "adhoc", Type: Projection,
		UserPrompt: prompt, OutTokens: 4,
	}
}

// TestReorderCacheSkipsRepeatedSolve is the satellite pin: an identical
// repeated batch window (same stage key, same rows) solves GGR once — the
// second stage run is served from the reorder cache with the same schedule.
func TestReorderCacheSkipsRepeatedSolve(t *testing.T) {
	rc := NewReorderCache(0)
	cfg := Config{Policy: CacheGGR, ReorderCache: rc}
	tbl := cacheTestTable(24, "")
	spec := cacheTestSpec("Summarize the text.")

	first, err := RunStageContext(context.Background(), spec, tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := rc.Stats(); s.Solves != 1 || s.Hits != 0 || s.Misses != 1 {
		t.Fatalf("after first window: %+v, want 1 solve / 1 miss", s)
	}
	second, err := RunStageContext(context.Background(), spec, tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := rc.Stats(); s.Solves != 1 || s.Hits != 1 {
		t.Fatalf("after repeated window: %+v, want solves pinned at 1 with a hit", s)
	}
	if !reflect.DeepEqual(first.Outputs, second.Outputs) {
		t.Fatal("cached schedule changed the stage outputs")
	}
	if first.PHC != second.PHC {
		t.Fatalf("cached PHC %d differs from solved %d", second.PHC, first.PHC)
	}
}

// TestReorderCacheMissesOnChange pins the key: a changed row set or a
// different stage key (another prompt) must re-solve.
func TestReorderCacheMissesOnChange(t *testing.T) {
	rc := NewReorderCache(0)
	cfg := Config{Policy: CacheGGR, ReorderCache: rc}
	spec := cacheTestSpec("Summarize the text.")

	if _, err := RunStageContext(context.Background(), spec, cacheTestTable(24, ""), cfg); err != nil {
		t.Fatal(err)
	}
	// Same schema and stage key, one row's content differs: must miss.
	if _, err := RunStageContext(context.Background(), spec, cacheTestTable(24, "x"), cfg); err != nil {
		t.Fatal(err)
	}
	if s := rc.Stats(); s.Solves != 2 || s.Hits != 0 {
		t.Fatalf("changed rows served from cache: %+v", s)
	}
	// Same rows, different prompt → different StageKey: must miss.
	if _, err := RunStageContext(context.Background(), cacheTestSpec("Translate the text."), cacheTestTable(24, ""), cfg); err != nil {
		t.Fatal(err)
	}
	if s := rc.Stats(); s.Solves != 3 || s.Hits != 0 {
		t.Fatalf("changed stage key served from cache: %+v", s)
	}
	// FDs steer the solver, so they are part of the content hash.
	withFD := cacheTestTable(24, "")
	fds := table.NewFDSet()
	fds.AddGroup("group", "text")
	if err := withFD.SetFDs(fds); err != nil {
		t.Fatal(err)
	}
	if _, err := RunStageContext(context.Background(), spec, withFD, cfg); err != nil {
		t.Fatal(err)
	}
	if s := rc.Stats(); s.Solves != 4 {
		t.Fatalf("changed FDs served from cache: %+v", s)
	}
}

// TestReorderCacheEvictsLRU pins the bound.
func TestReorderCacheEvictsLRU(t *testing.T) {
	rc := NewReorderCache(2)
	cfg := Config{Policy: CacheGGR, ReorderCache: rc}
	spec := cacheTestSpec("Summarize the text.")
	for _, salt := range []string{"a", "b", "c"} {
		if _, err := RunStageContext(context.Background(), spec, cacheTestTable(8, salt), cfg); err != nil {
			t.Fatal(err)
		}
	}
	if got := rc.Len(); got != 2 {
		t.Fatalf("cache holds %d schedules, capacity 2", got)
	}
	// "a" was evicted: re-running it must solve again.
	if _, err := RunStageContext(context.Background(), spec, cacheTestTable(8, "a"), cfg); err != nil {
		t.Fatal(err)
	}
	if s := rc.Stats(); s.Solves != 4 {
		t.Fatalf("evicted entry served from cache: %+v", s)
	}
}

// TestPromptCacheMemoizes pins the tokenization memo: repeated texts hit,
// results match a fresh tokenizer's token count, and the memo is bounded.
func TestPromptCacheMemoizes(t *testing.T) {
	pc := NewPromptCache(4)
	a := pc.encode(literalPiece("the same text"))
	b := pc.encode(literalPiece("the same text"))
	if &a[0] != &b[0] {
		t.Fatal("repeated encode did not return the memoized slice")
	}
	if pc.Hits() != 1 || pc.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", pc.Hits(), pc.Misses())
	}
	for i := 0; i < 8; i++ {
		pc.encode(literalPiece(fmt.Sprintf("distinct text %d", i)))
	}
	if got := pc.Len(); got != 4 {
		t.Fatalf("memo holds %d texts, capacity 4", got)
	}
}

// TestPromptCacheStageIdentity: a stage run through the shared memo returns
// the same outputs and the same prompt-token accounting as the historical
// per-stage tokenizer.
func TestPromptCacheStageIdentity(t *testing.T) {
	tbl := cacheTestTable(24, "")
	spec := cacheTestSpec("Summarize the text.")
	plain, err := RunStageContext(context.Background(), spec, tbl, Config{Policy: CacheGGR})
	if err != nil {
		t.Fatal(err)
	}
	memo, err := RunStageContext(context.Background(), spec, tbl, Config{Policy: CacheGGR, PromptCache: NewPromptCache(0)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Outputs, memo.Outputs) {
		t.Fatal("prompt memo changed stage outputs")
	}
	if plain.Metrics.PromptTokens != memo.Metrics.PromptTokens {
		t.Fatalf("prompt tokens differ: plain %d, memo %d",
			plain.Metrics.PromptTokens, memo.Metrics.PromptTokens)
	}
	if plain.Metrics.MatchedTokens != memo.Metrics.MatchedTokens {
		t.Fatalf("matched tokens differ: plain %d, memo %d",
			plain.Metrics.MatchedTokens, memo.Metrics.MatchedTokens)
	}
}
