package pricing

import (
	"math"
	"testing"

	"repro/internal/tokenizer"
)

func TestGeminiWriteThenRead(t *testing.T) {
	p := seq(0, 1500)
	u, err := Simulate(GeminiFlash15, [][]tokenizer.Token{p, p, p}, []int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// One cache object created: rent for 1024 token-hours; two reads.
	if u.StorageTokenHours != 1024 {
		t.Errorf("storage token-hours = %f, want 1024", u.StorageTokenHours)
	}
	if u.Cached != 2048 {
		t.Errorf("cached = %d, want 2048", u.Cached)
	}
	if u.Written != 0 {
		t.Errorf("gemini writes bill at base rate, Written should stay 0, got %d", u.Written)
	}
}

func TestGeminiShortPromptsSkipCache(t *testing.T) {
	p := seq(0, 500)
	u, err := Simulate(GeminiFlash15, [][]tokenizer.Token{p, p}, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if u.Cached != 0 || u.StorageTokenHours != 0 {
		t.Errorf("short prompts touched the cache: %+v", u)
	}
}

func TestGeminiStorageRentInCost(t *testing.T) {
	u := Usage{Prompt: 1_000_000, StorageTokenHours: 1_000_000}
	withRent := GeminiFlash15.Cost(u)
	u.StorageTokenHours = 0
	without := GeminiFlash15.Cost(u)
	if diff := withRent - without; math.Abs(diff-1.00) > 1e-9 {
		t.Errorf("1M token-hours of rent cost %f, want 1.00", diff)
	}
}

func TestGeminiCachingPaysOffWithReuse(t *testing.T) {
	// Heavy reuse: caching must be cheaper than not caching.
	shared := make([][]tokenizer.Token, 50)
	outs := make([]int, 50)
	for i := range shared {
		shared[i] = seq(0, 2000)
		outs[i] = 2
	}
	u, err := Simulate(GeminiFlash15, shared, outs)
	if err != nil {
		t.Fatal(err)
	}
	noCache := GeminiFlash15.Cost(Usage{Prompt: u.Prompt, Output: u.Output})
	if GeminiFlash15.Cost(u) >= noCache {
		t.Errorf("caching with 50x reuse cost %.4f, no caching %.4f", GeminiFlash15.Cost(u), noCache)
	}
}

func TestGeminiDistinctPrefixesAllRent(t *testing.T) {
	prompts := [][]tokenizer.Token{seq(0, 1100), seq(10_000, 1100)}
	u, err := Simulate(GeminiFlash15, prompts, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if u.StorageTokenHours != 2048 {
		t.Errorf("storage = %f, want two 1024-token caches", u.StorageTokenHours)
	}
	if u.Cached != 0 {
		t.Errorf("cached = %d", u.Cached)
	}
}
