package query

import (
	"context"
	"testing"

	"repro/internal/backend"
	"repro/internal/table"
)

// TestNoFalsePrefixHitsAcrossTokenizers: without a PromptCache each call
// tokenizes on a tokenizer of its own, which gives two tables' disjoint words
// the same ids. A long-lived backend must not match the second call's
// prompts against blocks the first call cached. With a PromptCache — one
// shared by both calls or one per call, since every cache encodes on the same
// tokenizer — the ids mean the same text, and only the shared prompt prefix
// matches.
func TestNoFalsePrefixHitsAcrossTokenizers(t *testing.T) {
	oneColumn := func(words ...string) *table.Table {
		tbl := table.New("text")
		for _, w := range words {
			tbl.MustAppendRow(w)
		}
		return tbl
	}
	first := oneColumn("alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu nu xi omicron pi")
	second := oneColumn("red orange yellow green blue indigo violet white black grey brown pink cyan teal navy gold")
	spec := Spec{Name: "scope", Dataset: "adhoc", Type: Projection, UserPrompt: "Summarize.", OutTokens: 4}
	matched := func(be backend.Backend, pc *PromptCache, tables ...*table.Table) int64 {
		t.Helper()
		var last *StageResult
		for _, tbl := range tables {
			r, err := RunStageContext(context.Background(), spec, tbl, Config{Policy: CacheGGR, Backend: be, PromptCache: pc})
			if err != nil {
				t.Fatal(err)
			}
			last = r
		}
		return last.Metrics.MatchedTokens
	}

	fresh := matched(backend.NewPersistent(0), nil, second)
	if got := matched(backend.NewPersistent(0), nil, first, second); got > fresh {
		t.Errorf("without a PromptCache, stage 2 matched %d tokens on a warm backend, %d on a fresh one", got, fresh)
	}
	if got := matched(backend.NewPersistent(0), NewPromptCache(0), first, second); got != 64 {
		t.Errorf("with a PromptCache, stage 2 matched %d tokens, want the shared prompt prefix's 64", got)
	}
	// A fresh PromptCache per call, as a library user builds one per
	// statement: the two caches share the backend's unscoped batch key, so
	// they must give equal text equal ids.
	be := backend.NewPersistent(0)
	matched(be, NewPromptCache(0), first)
	if got := matched(be, NewPromptCache(0), second); got != 64 {
		t.Errorf("with a fresh PromptCache per call, stage 2 matched %d tokens, want the shared prompt prefix's 64", got)
	}
}
