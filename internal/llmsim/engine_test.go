package llmsim

import (
	"math"
	"testing"

	"repro/internal/tokenizer"
)

func seq(start, n int) []tokenizer.Token {
	out := make([]tokenizer.Token, n)
	for i := range out {
		out[i] = tokenizer.Token(start + i)
	}
	return out
}

func baseConfig(cached bool) Config {
	return Config{
		Cost:         CostModel{Model: Llama3_8B, Cluster: SingleL4},
		CacheEnabled: cached,
	}
}

func mkReqs(n, promptLen, outLen int, shared bool) []*Request {
	reqs := make([]*Request, n)
	for i := range reqs {
		base := 0
		if !shared {
			base = (i + 1) * 100000
		}
		reqs[i] = &Request{ID: i, Prompt: seq(base, promptLen), OutTokens: outLen}
	}
	return reqs
}

func TestRunBasicCompletion(t *testing.T) {
	e := New(baseConfig(true))
	reqs := mkReqs(10, 100, 5, false)
	m, err := e.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.JCT <= 0 {
		t.Error("JCT not positive")
	}
	if m.DecodeTokens != 50 {
		t.Errorf("decode tokens = %d, want 50", m.DecodeTokens)
	}
	if m.PromptTokens != 1000 {
		t.Errorf("prompt tokens = %d", m.PromptTokens)
	}
	for _, r := range reqs {
		if r.EndTime <= r.StartTime {
			t.Errorf("req %d: end %f <= start %f", r.ID, r.EndTime, r.StartTime)
		}
	}
}

func TestSharedPromptsHitCache(t *testing.T) {
	e := New(baseConfig(true))
	reqs := mkReqs(10, 128, 2, true) // identical prompts
	m, err := e.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.HitRate() < 0.85 {
		t.Errorf("hit rate = %.2f, want ≥ 0.85 for identical prompts", m.HitRate())
	}
	// First request is a cold miss.
	if reqs[0].Matched != 0 {
		t.Errorf("first request matched %d", reqs[0].Matched)
	}
	if reqs[9].Matched != 128 {
		t.Errorf("later request matched %d, want 128", reqs[9].Matched)
	}
}

func TestNoCacheBaselineNeverMatches(t *testing.T) {
	e := New(baseConfig(false))
	reqs := mkReqs(10, 128, 2, true)
	m, err := e.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.MatchedTokens != 0 {
		t.Errorf("no-cache run matched %d tokens", m.MatchedTokens)
	}
	if m.PrefilledTokens != m.PromptTokens {
		t.Errorf("prefilled %d != prompt %d", m.PrefilledTokens, m.PromptTokens)
	}
}

func TestCachingReducesJCT(t *testing.T) {
	reqs := func() []*Request { return mkReqs(50, 512, 2, true) }
	mCached, err := New(baseConfig(true)).Run(reqs())
	if err != nil {
		t.Fatal(err)
	}
	mCold, err := New(baseConfig(false)).Run(reqs())
	if err != nil {
		t.Fatal(err)
	}
	if mCached.JCT >= mCold.JCT {
		t.Errorf("caching did not help: cached %.3fs vs none %.3fs", mCached.JCT, mCold.JCT)
	}
	if speedup := mCold.JCT / mCached.JCT; speedup < 1.5 {
		t.Errorf("speedup on identical prompts = %.2fx, want ≥ 1.5x", speedup)
	}
}

func TestDistinctPromptsNoBenefit(t *testing.T) {
	// With fully distinct prompts the cache cannot help; JCTs must be close.
	mCached, err := New(baseConfig(true)).Run(mkReqs(20, 256, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	mCold, err := New(baseConfig(false)).Run(mkReqs(20, 256, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	ratio := mCached.JCT / mCold.JCT
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("distinct prompts: cached/cold JCT ratio = %.3f, want ≈ 1", ratio)
	}
}

func TestConservationOfTokens(t *testing.T) {
	e := New(baseConfig(true))
	reqs := mkReqs(30, 200, 3, true)
	m, err := e.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if m.MatchedTokens+m.PrefilledTokens != m.PromptTokens {
		t.Errorf("matched %d + prefilled %d != prompt %d",
			m.MatchedTokens, m.PrefilledTokens, m.PromptTokens)
	}
}

func TestMemoryPressureLimitsBatch(t *testing.T) {
	// Pool of 40 blocks × 16 tokens = 640 tokens. Each distinct request
	// needs ~20 blocks (256-token prompt + tail/gen), so only ~2 fit at once.
	cfg := baseConfig(true)
	cfg.CapacityOverride = 40
	m, err := New(cfg).Run(mkReqs(8, 256, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	if m.MaxRunning > 2 {
		t.Errorf("max running = %d, want ≤ 2 under memory pressure", m.MaxRunning)
	}
}

func TestSharingEnablesLargerBatches(t *testing.T) {
	cfg := baseConfig(true)
	cfg.CapacityOverride = 64
	mShared, err := New(cfg).Run(mkReqs(16, 512, 4, true))
	if err != nil {
		t.Fatal(err)
	}
	cfgNo := baseConfig(false)
	cfgNo.CapacityOverride = 64
	mCold, err := New(cfgNo).Run(mkReqs(16, 512, 4, true))
	if err != nil {
		t.Fatal(err)
	}
	if mShared.MaxRunning <= mCold.MaxRunning {
		t.Errorf("sharing did not increase batch: %d vs %d", mShared.MaxRunning, mCold.MaxRunning)
	}
}

func TestOversizedRequestErrors(t *testing.T) {
	cfg := baseConfig(true)
	cfg.CapacityOverride = 2 // 32 tokens
	_, err := New(cfg).Run(mkReqs(1, 1000, 2, false))
	if err == nil {
		t.Fatal("oversized request silently dropped")
	}
}

func TestEmptyPromptErrors(t *testing.T) {
	_, err := New(baseConfig(true)).Run([]*Request{{ID: 0, OutTokens: 1}})
	if err == nil {
		t.Fatal("empty prompt accepted")
	}
}

func TestZeroOutputClampedToOne(t *testing.T) {
	e := New(baseConfig(true))
	m, err := e.Run([]*Request{{ID: 0, Prompt: seq(0, 32), OutTokens: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if m.DecodeTokens != 1 {
		t.Errorf("decode tokens = %d, want 1", m.DecodeTokens)
	}
}

func TestFIFOOrderPreserved(t *testing.T) {
	e := New(baseConfig(true))
	reqs := mkReqs(40, 300, 2, false)
	if _, err := e.Run(reqs); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(reqs); i++ {
		if reqs[i].StartTime < reqs[i-1].StartTime {
			t.Fatalf("request %d admitted before request %d", i, i-1)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, err := New(baseConfig(true)).Run(mkReqs(25, 200, 4, true))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(baseConfig(true)).Run(mkReqs(25, 200, 4, true))
	if err != nil {
		t.Fatal(err)
	}
	if a.JCT != b.JCT || a.Steps != b.Steps || a.MatchedTokens != b.MatchedTokens {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestLongOutputDecodeDominates(t *testing.T) {
	// With long outputs, decode should contribute most of the time; the
	// relative gain from caching must shrink (Sec. 6.2, projection queries).
	shortOut := func(cached bool) float64 {
		m, err := New(baseConfig(cached)).Run(mkReqs(30, 400, 2, true))
		if err != nil {
			t.Fatal(err)
		}
		return m.JCT
	}
	longOut := func(cached bool) float64 {
		m, err := New(baseConfig(cached)).Run(mkReqs(30, 400, 100, true))
		if err != nil {
			t.Fatal(err)
		}
		return m.JCT
	}
	shortSpeedup := shortOut(false) / shortOut(true)
	longSpeedup := longOut(false) / longOut(true)
	if longSpeedup >= shortSpeedup {
		t.Errorf("long-output speedup %.2fx not below short-output %.2fx", longSpeedup, shortSpeedup)
	}
}

func TestModelPresetsSanity(t *testing.T) {
	if p := Llama3_8B.Params(); math.Abs(p-8.0e9) > 0.5e9 {
		t.Errorf("8B params = %.2fB", p/1e9)
	}
	if p := Llama3_70B.Params(); math.Abs(p-70.6e9) > 2e9 {
		t.Errorf("70B params = %.2fB", p/1e9)
	}
	if p := Llama32_1B.Params(); math.Abs(p-1.24e9) > 0.2e9 {
		t.Errorf("1B params = %.2fB", p/1e9)
	}
	if kv := Llama3_8B.KVBytesPerToken(); kv != 131072 {
		t.Errorf("8B KV/token = %v, want 131072", kv)
	}
	if kv := Llama3_70B.KVBytesPerToken(); kv != 327680 {
		t.Errorf("70B KV/token = %v, want 327680", kv)
	}
}

func TestKVPoolSizing(t *testing.T) {
	cm := CostModel{Model: Llama3_8B, Cluster: SingleL4}
	blocks := cm.KVPoolBlocks(16)
	// 24 GB − ~16 GB weights − 2.4 GB reserve ≈ 5.5 GB → ~2600 blocks.
	if blocks < 1500 || blocks > 4000 {
		t.Errorf("8B/L4 pool = %d blocks, outside plausible range", blocks)
	}
	cm70 := CostModel{Model: Llama3_70B, Cluster: SingleL4}
	if cm70.KVPoolBlocks(16) != 0 {
		t.Error("70B should not fit on a single L4")
	}
	cm70.Cluster = EightL4
	if cm70.KVPoolBlocks(16) <= 0 {
		t.Error("70B must fit on 8×L4")
	}
}

func TestStepTimeMonotonicity(t *testing.T) {
	cm := CostModel{Model: Llama3_8B, Cluster: SingleL4}
	small := cm.StepTime([]PrefillWork{{NewTokens: 100}}, 0, 0)
	large := cm.StepTime([]PrefillWork{{NewTokens: 1000}}, 0, 0)
	if large <= small {
		t.Errorf("prefill time not monotone: %f vs %f", small, large)
	}
	d1 := cm.StepTime(nil, 1, 500)
	d32 := cm.StepTime(nil, 32, 16000)
	if d32 <= d1 {
		t.Errorf("decode time not monotone in batch: %f vs %f", d1, d32)
	}
	// Batched decode must amortize: 32 sequences in one step is far cheaper
	// than 32 separate steps.
	if d32 >= 32*d1*0.5 {
		t.Errorf("no batching amortization: d32=%f, 32×d1=%f", d32, 32*d1)
	}
	if cm.StepTime(nil, 0, 0) <= 0 {
		t.Error("empty step should still cost overhead")
	}
}

func TestCachedPrefillCheaper(t *testing.T) {
	cm := CostModel{Model: Llama3_8B, Cluster: SingleL4}
	cold := cm.StepTime([]PrefillWork{{NewTokens: 1000, CtxStart: 0}}, 0, 0)
	warm := cm.StepTime([]PrefillWork{{NewTokens: 200, CtxStart: 800}}, 0, 0)
	if warm >= cold {
		t.Errorf("cached prefill %f not cheaper than cold %f", warm, cold)
	}
}

func TestTensorParallelSpeedsPrefill(t *testing.T) {
	single := CostModel{Model: Llama3_70B, Cluster: Cluster{GPU: L4, Count: 1, TPEfficiency: 1}}
	eight := CostModel{Model: Llama3_70B, Cluster: EightL4}
	w := []PrefillWork{{NewTokens: 2000}}
	if eight.StepTime(w, 0, 0) >= single.StepTime(w, 0, 0) {
		t.Error("8-way TP not faster than single GPU")
	}
}

// runAllocSlack bounds how many more allocations an Engine.Run over eight
// times the requests may make: growth of the node slabs, the eviction heap,
// the edge map and the engine's own queues, all amortized — nothing per
// request.
const runAllocSlack = 16

// TestRunAllocationsDoNotScaleWithRequests: admission, hashing and release
// allocate nothing per request, so a run over 512 requests allocates about
// as often as one over 64 of the same shape — a shared prefix branching
// into distinct tails, on a pool small enough to evict and recycle.
func TestRunAllocationsDoNotScaleWithRequests(t *testing.T) {
	cfg := baseConfig(true)
	cfg.CapacityOverride = 256
	allocs := func(n int) float64 {
		reqs := make([]*Request, n)
		for i := range reqs {
			reqs[i] = &Request{ID: i, Prompt: append(seq(0, 64), seq((i+1)*1000, 40)...), OutTokens: 4}
		}
		return testing.AllocsPerRun(5, func() {
			m, err := New(cfg).Run(reqs)
			if err != nil || m.Cache.EvictedBlocks == 0 && n > 64 {
				t.Fatalf("run over %d requests: err %v, evicted %d", n, err, m.Cache.EvictedBlocks)
			}
		})
	}
	small, large := allocs(64), allocs(512)
	t.Logf("allocations per run: %v over 64 requests, %v over 512", small, large)
	if large-small > runAllocSlack {
		t.Errorf("a run over 512 requests allocates %v times, over 64 %v: more than %d apart", large, small, runAllocSlack)
	}
}
