package pricing

import "repro/internal/tokenizer"

// Gemini is the third provider model the paper cites (context caching,
// ai.google.dev/gemini-api/docs/caching): the user explicitly creates a
// cache object over a prompt prefix, pays a one-time write at the base input
// rate, a storage rent per token-hour while the cache lives, and a
// discounted rate for cached tokens on every request that references it.
const Gemini Provider = "gemini"

// GeminiFlash15 approximates Gemini 1.5 Flash context-caching prices:
// $0.075/M base input, $0.01875/M cached input (75% discount), $1.00/M
// tokens per hour of cache storage, $0.30/M output, 32k-token cache minimum
// for 1.5 Flash... the paper's setting needs only the relative structure, so
// we use the documented 1,024-token floor of the later Flash models to keep
// the three providers comparable.
var GeminiFlash15 = Book{
	Name: "gemini-1.5-flash", Provider: Gemini,
	InputPerM: 0.075, CachedPerM: 0.01875, OutputPerM: 0.30,
	MinPrefix:     1024,
	StoragePerMH:  1.00,
	CacheLifetime: 1.0, // hold each cache for one hour (default TTL)
}

// simulateGemini models explicit context caching with a single cache object
// per distinct MinPrefix-token prefix (mirroring the Anthropic breakpoint
// discipline, which is how a batch analytics job would use it): the first
// request writes the cache at the base rate; subsequent identical prefixes
// read at the cached rate. Storage rent accrues per distinct cache for the
// configured lifetime and is added by Book.Cost via Usage.StorageTokenHours.
func simulateGemini(b Book, prompts [][]tokenizer.Token, u *Usage) {
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
			// The write bills at the base input rate (no premium), so it
			// stays in the "fresh" bucket; only storage rent is extra.
			u.StorageTokenHours += float64(b.MinPrefix) * b.CacheLifetime
		}
	}
}
