// Package pricing implements the OpenAI and Anthropic prompt-caching price
// models the paper evaluates (Sec. 6.3): OpenAI bills cached prompt tokens
// at a 50% discount with automatic prefix detection (minimum 1,024 tokens,
// 128-token granularity); Anthropic bills explicit cache writes at a 25%
// premium and cache reads at 10% of the base input rate, with a 1,024-token
// minimum cacheable prefix.
package pricing

import (
	"fmt"

	"repro/internal/kvcache"
	"repro/internal/tokenizer"
)

// Provider selects the caching semantics.
type Provider string

const (
	// OpenAI: automatic prefix caching, discounted cached tokens.
	OpenAI Provider = "openai"
	// Anthropic: explicit cache breakpoints, write premium + cheap reads.
	Anthropic Provider = "anthropic"
)

// Book is one model's price card (all rates in $ per million tokens).
type Book struct {
	Name     string
	Provider Provider
	// InputPerM is the base input rate; CachedPerM the rate for cached
	// prompt tokens (OpenAI's discount or Anthropic's cache-read rate);
	// WritePerM Anthropic's cache-write rate (unused for OpenAI);
	// OutputPerM the completion rate.
	InputPerM  float64
	CachedPerM float64
	WritePerM  float64
	OutputPerM float64
	// MinPrefix is the minimum cacheable prefix length; Granularity the
	// block size cached lengths are rounded down to (0 = exact).
	MinPrefix   int
	Granularity int
	// StoragePerMH is Gemini's cache-storage rent ($ per million tokens per
	// hour); CacheLifetime how long each cache object is held (hours).
	StoragePerMH  float64
	CacheLifetime float64
}

// GPT4oMini is the OpenAI card used in Table 3 ($0.15/M input, $0.075/M
// cached, $0.60/M output).
var GPT4oMini = Book{
	Name: "gpt-4o-mini", Provider: OpenAI,
	InputPerM: 0.15, CachedPerM: 0.075, OutputPerM: 0.60,
	MinPrefix: 1024, Granularity: 128,
}

// Claude35Sonnet is the Anthropic card used in Table 3 ($3/M input, $3.75/M
// cache write, $0.30/M cache read, $15/M output).
var Claude35Sonnet = Book{
	Name: "claude-3.5-sonnet", Provider: Anthropic,
	InputPerM: 3.00, CachedPerM: 0.30, WritePerM: 3.75, OutputPerM: 15.00,
	MinPrefix: 1024,
}

// Usage aggregates billable tokens over a workload.
type Usage struct {
	Requests int
	// Prompt counts all prompt tokens; Cached the subset billed at the
	// cached rate; Written the subset billed at the cache-write rate
	// (Anthropic only). Fresh = Prompt − Cached − Written bills at base.
	Prompt  int64
	Cached  int64
	Written int64
	Output  int64
	// StorageTokenHours accrues Gemini cache rent (token·hours).
	StorageTokenHours float64
}

// HitRate is Cached / Prompt.
func (u Usage) HitRate() float64 {
	if u.Prompt == 0 {
		return 0
	}
	return float64(u.Cached) / float64(u.Prompt)
}

// Cost prices a usage aggregate under the book.
func (b Book) Cost(u Usage) float64 {
	fresh := u.Prompt - u.Cached - u.Written
	return float64(fresh)*b.InputPerM/1e6 +
		float64(u.Cached)*b.CachedPerM/1e6 +
		float64(u.Written)*b.WritePerM/1e6 +
		float64(u.Output)*b.OutputPerM/1e6 +
		u.StorageTokenHours*b.StoragePerMH/1e6
}

// Simulate replays a request sequence against the provider-side cache and
// returns the billable usage. prompts[i] is the token sequence of request i;
// outTokens[i] its completion length.
func Simulate(b Book, prompts [][]tokenizer.Token, outTokens []int) (Usage, error) {
	if len(prompts) != len(outTokens) {
		return Usage{}, fmt.Errorf("pricing: %d prompts vs %d output lengths", len(prompts), len(outTokens))
	}
	var u Usage
	u.Requests = len(prompts)
	switch b.Provider {
	case OpenAI:
		simulateOpenAI(b, prompts, &u)
	case Anthropic:
		simulateAnthropic(b, prompts, &u)
	case Gemini:
		simulateGemini(b, prompts, &u)
	default:
		return Usage{}, fmt.Errorf("pricing: unknown provider %q", b.Provider)
	}
	for i, p := range prompts {
		u.Prompt += int64(len(p))
		u.Output += int64(outTokens[i])
	}
	return u, nil
}

// simulateOpenAI models automatic prefix caching: the longest previously
// seen prefix counts as cached when it reaches MinPrefix, rounded down to
// Granularity. Every request's own prefixes become cacheable afterwards.
// Prefixes are tracked as chained hashes of Granularity-sized blocks, the
// same structure providers use (and the one definition the KV cache uses:
// kvcache.BlockHashes), so memory stays proportional to distinct blocks
// rather than tokens.
func simulateOpenAI(b Book, prompts [][]tokenizer.Token, u *Usage) {
	gran := b.Granularity
	if gran <= 0 {
		gran = 1
	}
	seen := make(map[uint64]bool)
	var prev []tokenizer.Token
	var hs []uint64
	for _, p := range prompts {
		// Callers price prefix-sorted schedules, so each chain resumes from
		// the previous prompt's.
		hs = kvcache.BlockHashesAfter(prev, hs, p, gran)
		prev = p
		matched := 0
		for _, h := range hs {
			if !seen[h] {
				break
			}
			matched += gran
		}
		if matched < b.MinPrefix {
			matched = 0
		}
		u.Cached += int64(matched)
		for _, h := range hs {
			seen[h] = true
		}
	}
}

// simulateAnthropic models one explicit cache breakpoint at MinPrefix tokens
// (the paper's conservative single-breakpoint setup): the first request with
// a given 1,024-token prefix pays the write premium on it; subsequent
// requests with the identical prefix read it at the cached rate. Prompts
// shorter than the minimum are not cached at all.
func simulateAnthropic(b Book, prompts [][]tokenizer.Token, u *Usage) {
	seen := make(map[uint64]bool)
	for _, p := range prompts {
		if len(p) < b.MinPrefix {
			continue
		}
		h := hashTokens(p[:b.MinPrefix])
		if seen[h] {
			u.Cached += int64(b.MinPrefix)
		} else {
			seen[h] = true
			u.Written += int64(b.MinPrefix)
		}
	}
}

// EstimatedSavings computes Table 4's arithmetic: given the measured prefix
// hit rates of the original and GGR orderings, the relative cost reduction
// of GGR's input bill under the book's rates. OpenAI bills hits at the
// cached discount; Anthropic bills hits as reads and misses as writes (the
// steady state where every miss writes a new prefix).
func EstimatedSavings(b Book, hitOriginal, hitGGR float64) float64 {
	cost := func(h float64) float64 {
		switch b.Provider {
		case Anthropic:
			return (1-h)*(b.WritePerM/b.InputPerM) + h*(b.CachedPerM/b.InputPerM)
		default:
			return (1 - h) + h*(b.CachedPerM/b.InputPerM)
		}
	}
	co, cg := cost(hitOriginal), cost(hitGGR)
	if co <= 0 {
		return 0
	}
	return 1 - cg/co
}

func hashTokens(p []tokenizer.Token) uint64 {
	var h uint64 = 1469598103934665603
	for _, t := range p {
		h ^= uint64(uint32(t))
		h *= 1099511628211
	}
	return h
}
