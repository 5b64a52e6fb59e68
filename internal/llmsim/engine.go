package llmsim

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/kvcache"
	"repro/internal/stats"
	"repro/internal/tokenizer"
)

// Request is one LLM invocation: a tokenized prompt and a deterministic
// output budget (the simulator does not generate text; the oracle layer
// decides answers, the engine only accounts time and memory).
type Request struct {
	ID        int
	Prompt    []tokenizer.Token
	OutTokens int

	// Results, populated by Run.
	Matched   int     // prompt tokens served from the prefix cache
	StartTime float64 // admission time (s, virtual)
	EndTime   float64 // completion time (s, virtual)

	lease *kvcache.Lease
	// hashes is the prompt's block-hash chain, computed the first time the
	// request reaches admission (hashed) and reused by every retry.
	hashes    []uint64
	hashed    bool
	prefilled int
	generated int
	admitted  bool
	done      bool
}

// SchedPolicy selects how the engine admits waiting requests.
type SchedPolicy int

const (
	// FIFO admits requests strictly in arrival order — preserving whatever
	// schedule the offline reordering produced. This is the default and the
	// paper's setting.
	FIFO SchedPolicy = iota
	// CacheAware greedily admits, within a bounded lookahead window, the
	// waiting request with the longest currently-cached prefix (SGLang-style
	// online scheduling). It reorders rows but cannot reorder fields, so it
	// lower-bounds what offline GGR achieves; the ablation_online experiment
	// quantifies the gap.
	CacheAware
)

// Config sizes the engine.
type Config struct {
	Cost CostModel
	// BlockSize is the KV block size in tokens (default 16).
	BlockSize int
	// MaxBatchSeqs caps concurrently running sequences (default 32, the
	// paper's batching assumption).
	MaxBatchSeqs int
	// MaxBatchTokens is the per-step token budget shared by decode (1 per
	// sequence) and chunked prefill (default 8192).
	MaxBatchTokens int
	// CacheEnabled toggles prefix caching; false is the No Cache baseline.
	CacheEnabled bool
	// CapacityOverride, when positive, replaces the cost-model-derived KV
	// pool size (in blocks). Used by tests.
	CapacityOverride int64
	// Sched selects the admission policy (default FIFO).
	Sched SchedPolicy
	// Lookahead bounds CacheAware's scan of the waiting queue (default 64).
	Lookahead int
	// Trace, when non-nil, receives a JSONL event log of the run (see
	// TraceEvent).
	Trace io.Writer
}

func (c Config) lookahead() int {
	if c.Lookahead > 0 {
		return c.Lookahead
	}
	return 64
}

func (c Config) blockSize() int {
	if c.BlockSize > 0 {
		return c.BlockSize
	}
	return 16
}

func (c Config) maxSeqs() int {
	if c.MaxBatchSeqs > 0 {
		return c.MaxBatchSeqs
	}
	return 32
}

func (c Config) maxTokens() int {
	if c.MaxBatchTokens > 0 {
		return c.MaxBatchTokens
	}
	return 8192
}

// Metrics summarizes a run.
//
// Counting fields are conserved accounting: the llmqlint accounting
// analyzer rejects keyed literals that set some counters and omit others.
//
//llmqlint:accounting
type Metrics struct {
	// JCT is the job completion time: virtual seconds until the last request
	// finishes. This is the paper's end-to-end query latency.
	JCT float64
	// Steps is the number of engine iterations.
	Steps int64
	// PromptTokens / MatchedTokens / PrefilledTokens decompose prompt
	// processing: Matched were served from cache, Prefilled were computed.
	PromptTokens    int64
	MatchedTokens   int64
	PrefilledTokens int64
	// DecodeTokens is the total generated token count.
	DecodeTokens int64
	// MeanLatency is the average per-request latency; P50/P95/P99 its
	// percentiles; MaxRunning the peak concurrent batch size observed.
	MeanLatency float64
	P50Latency  float64
	P95Latency  float64
	P99Latency  float64
	MaxRunning  int
	// Cache is the KV cache's own accounting.
	Cache kvcache.Stats
}

// HitRate is MatchedTokens / PromptTokens.
func (m Metrics) HitRate() float64 {
	if m.PromptTokens == 0 {
		return 0
	}
	return float64(m.MatchedTokens) / float64(m.PromptTokens)
}

// Engine executes a request schedule under continuous batching.
type Engine struct {
	cfg   Config
	cache *kvcache.Cache
}

// New builds an engine; the KV pool is sized from the cost model.
func New(cfg Config) *Engine {
	capacity := cfg.CapacityOverride
	if capacity <= 0 {
		capacity = cfg.Cost.KVPoolBlocks(cfg.blockSize())
	}
	return &Engine{
		cfg: cfg,
		cache: kvcache.New(kvcache.Config{
			BlockSize:      cfg.blockSize(),
			CapacityBlocks: capacity,
			Disabled:       !cfg.CacheEnabled,
		}),
	}
}

// Run processes the requests (under FIFO, the given order IS the serving
// order — preserving it is the contract the offline reordering algorithms
// rely on) and returns aggregate metrics. Request result fields are filled
// in place.
func (e *Engine) Run(reqs []*Request) (Metrics, error) {
	return e.RunInterruptible(reqs, nil)
}

// RunInterruptible is Run with a cooperative cancellation hook: interrupt,
// when non-nil, is polled once per engine step, and a non-nil return aborts
// the run mid-batch with that error. Before returning, every admitted
// request's KV lease is released, so a long-lived engine (persistent
// backends reuse one Engine across runs) never leaks pinned blocks to an
// aborted batch. Metrics reflect the work done up to the abort.
func (e *Engine) RunInterruptible(reqs []*Request, interrupt func() error) (Metrics, error) {
	var m Metrics
	clock := 0.0
	// waiting[head:] is the queue: admitting its first request advances
	// head, and only CacheAware's mid-queue picks splice.
	waiting := append([]*Request(nil), reqs...)
	head := 0
	var running []*Request
	var prefill []PrefillWork // this step's prefill chunks
	var emits []*Request      // the requests emitting a token this step
	finished := 0
	latencies := make([]float64, 0, len(reqs))
	tr := newTracer(e.cfg.Trace)

	// Every abort path must release the leases of admitted requests: on a
	// long-lived engine a leaked lease pins its KV blocks forever, shrinking
	// capacity for every later batch on the same engine.
	abort := func(err error) (Metrics, error) {
		for _, r := range running {
			e.cache.Release(r.lease)
		}
		return m, err
	}

	// chain returns r's block-hash chain, hashing on first use. Requests
	// first reach admission in submission order — FIFO offers only the head,
	// and CacheAware's window is a prefix of what is still waiting — so the
	// hashed requests are always reqs[:hashedTo] and each new chain resumes
	// from the request submitted just before it: under a prefix-sorted
	// schedule, most of every prompt is never hashed at all. A disabled
	// cache never reads the chain, so none is built.
	for _, r := range reqs {
		r.hashes, r.hashed = nil, false
	}
	hashedTo, prev := 0, &Request{} // prev is reqs[hashedTo-1] once there is one
	chain := func(r *Request) []uint64 {
		for !r.hashed && e.cfg.CacheEnabled {
			cur := reqs[hashedTo]
			cur.hashes = kvcache.BlockHashesAfter(prev.Prompt, prev.hashes, cur.Prompt, e.cfg.blockSize())
			cur.hashed = true
			hashedTo, prev = hashedTo+1, cur
		}
		return r.hashes
	}

	for finished < len(reqs) {
		if interrupt != nil {
			if err := interrupt(); err != nil {
				return abort(err)
			}
		}
		// Admission: a request enters when a batch slot and KV memory are
		// available. FIFO never reorders around a blocked head; CacheAware
		// picks the best-matching waiting request within the lookahead.
		for head < len(waiting) && len(running) < e.cfg.maxSeqs() {
			idx := head
			if e.cfg.Sched == CacheAware {
				idx += e.pickCacheAware(waiting[head:], chain)
			}
			r := waiting[idx]
			if len(r.Prompt) == 0 {
				return abort(fmt.Errorf("llmsim: request %d has an empty prompt", r.ID))
			}
			if r.OutTokens <= 0 {
				r.OutTokens = 1 // every request emits at least one token
			}
			lease, ok := e.cache.AcquireHashed(chain(r), len(r.Prompt), r.OutTokens)
			if !ok {
				break
			}
			if idx == head {
				head++
			} else {
				waiting = append(waiting[:idx], waiting[idx+1:]...)
			}
			r.lease = lease
			r.Matched = lease.Matched
			r.prefilled = lease.Matched
			r.admitted = true
			r.StartTime = clock
			m.PromptTokens += int64(len(r.Prompt))
			m.MatchedTokens += int64(lease.Matched)
			running = append(running, r)
			tr.emit(TraceEvent{Time: clock, Kind: "admit", Req: r.ID,
				Matched: r.Matched, Prompt: len(r.Prompt), UsedBlocks: e.cache.UsedBlocks()})
		}
		if len(running) == 0 {
			if head < len(waiting) {
				return abort(fmt.Errorf("llmsim: request %d cannot fit in KV memory even alone (prompt %d tokens)",
					waiting[head].ID, len(waiting[head].Prompt)))
			}
			break
		}
		if len(running) > m.MaxRunning {
			m.MaxRunning = len(running)
		}

		// One iteration: sequences already past prefill decode one token
		// (1 budget unit each); the remaining budget feeds chunked prefill
		// in FIFO order. A request whose prefill completes this step emits
		// its first output token from the prefill itself, matching real
		// prefill-produces-first-token semantics.
		budget := e.cfg.maxTokens()
		prefill, emits = prefill[:0], emits[:0]
		decodeSeqs := 0
		var decodeCtx int64
		for _, r := range running {
			if r.prefilled < len(r.Prompt) {
				continue
			}
			decodeSeqs++
			decodeCtx += int64(len(r.Prompt) + r.generated)
			budget--
			emits = append(emits, r)
		}
		for _, r := range running {
			if budget <= 0 {
				break
			}
			pending := len(r.Prompt) - r.prefilled
			if pending <= 0 {
				continue
			}
			chunk := pending
			if chunk > budget {
				chunk = budget
			}
			prefill = append(prefill, PrefillWork{NewTokens: chunk, CtxStart: r.prefilled})
			r.prefilled += chunk
			budget -= chunk
			m.PrefilledTokens += int64(chunk)
			if r.prefilled == len(r.Prompt) {
				emits = append(emits, r)
			}
		}

		clock += e.cfg.Cost.StepTime(prefill, decodeSeqs, decodeCtx)
		m.Steps++
		stepPrefill := 0
		for _, w := range prefill {
			stepPrefill += w.NewTokens
		}
		tr.emit(TraceEvent{Time: clock, Kind: "step", Running: len(running),
			PrefillTokens: stepPrefill, DecodeSeqs: decodeSeqs, UsedBlocks: e.cache.UsedBlocks()})

		for _, r := range emits {
			r.generated++
			m.DecodeTokens++
		}

		still := running[:0]
		for _, r := range running {
			if r.prefilled >= len(r.Prompt) && r.generated >= r.OutTokens {
				r.done = true
				r.EndTime = clock
				e.cache.Release(r.lease)
				finished++
				latencies = append(latencies, clock-r.StartTime)
				tr.emit(TraceEvent{Time: clock, Kind: "finish", Req: r.ID, Latency: clock - r.StartTime})
				continue
			}
			still = append(still, r)
		}
		running = still
	}

	m.JCT = clock
	if len(latencies) > 0 {
		var sum float64
		for _, l := range latencies {
			sum += l
		}
		m.MeanLatency = sum / float64(len(latencies))
		sort.Float64s(latencies)
		m.P50Latency = stats.Quantile(latencies, 0.50)
		m.P95Latency = stats.Quantile(latencies, 0.95)
		m.P99Latency = stats.Quantile(latencies, 0.99)
	}
	m.Cache = e.cache.Stats()
	if err := tr.Err(); err != nil {
		return m, err
	}
	return m, nil
}

// pickCacheAware returns the waiting-queue index (within the lookahead
// window) whose prompt has the longest currently-cached prefix, preferring
// the earliest on ties so starvation is bounded by the window.
func (e *Engine) pickCacheAware(waiting []*Request, chain func(*Request) []uint64) int {
	window := e.cfg.lookahead()
	if window > len(waiting) {
		window = len(waiting)
	}
	best, bestMatch := 0, -1
	for i := 0; i < window; i++ {
		if m := e.cache.MatchLenHashed(chain(waiting[i])); m > bestMatch {
			best, bestMatch = i, m
		}
	}
	return best
}
