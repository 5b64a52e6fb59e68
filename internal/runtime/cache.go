package runtime

import (
	"sync"

	"repro/internal/lru"
)

// inflight is one LLM call being computed right now. The owner resolves it
// exactly once; subscribers select on done (against their own context) and
// then read val/err.
type inflight struct {
	done chan struct{}
	val  string
	err  error
}

// resultKey is one row's LLM call: the stage fingerprint and the row part
// stageRowKey renders. Every row of a stage shares the one fingerprint
// string, so a retained key costs the row's own bytes, not the ≈ 430 the
// fingerprint runs to.
type resultKey struct{ stage, row string }

// resultCache is the exact-match LLM result cache plus the inflight table.
// One lock covers both so a lookup classifies a key atomically: cached,
// being computed by someone else, or ours to compute. Entries are evicted in
// LRU order once capacity is exceeded; inflight entries are not counted
// against capacity (they are transient and bounded by pending rows).
type resultCache struct {
	mu       sync.Mutex
	capacity int
	entries  *lru.Map[resultKey, string] // guarded by mu
	inflight map[resultKey]*inflight     // guarded by mu
}

// newResultCache sizes the cache; capacity <= 0 disables storing results
// (inflight dedup still works — it needs no retention).
func newResultCache(capacity int) *resultCache {
	return &resultCache{
		capacity: capacity,
		entries:  lru.New[resultKey, string](capacity),
		inflight: make(map[resultKey]*inflight),
	}
}

// classification of one key by acquire.
type acquireState int

const (
	acquireHit        acquireState = iota // value returned, nothing to do
	acquireSubscribed                     // someone else is computing; wait on the inflight
	acquireOwned                          // caller must compute and then commit or fail
)

// acquire classifies key in one atomic step. On acquireHit val holds the
// cached output; on acquireSubscribed fl is the computation to wait on; on
// acquireOwned the caller has registered a new inflight entry (fl) it is
// obligated to resolve via commit or fail.
func (c *resultCache) acquire(key resultKey) (state acquireState, val string, fl *inflight) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if val, ok := c.entries.Get(key); ok {
		return acquireHit, val, nil
	}
	if f, ok := c.inflight[key]; ok {
		return acquireSubscribed, "", f
	}
	f := &inflight{done: make(chan struct{})}
	c.inflight[key] = f
	return acquireOwned, "", f
}

// commit stores the computed value and wakes every subscriber.
func (c *resultCache) commit(key resultKey, val string) {
	c.mu.Lock()
	if f, ok := c.inflight[key]; ok {
		delete(c.inflight, key)
		f.val = val
		close(f.done)
	}
	if c.capacity > 0 {
		c.entries.Put(key, val)
	}
	c.mu.Unlock()
}

// fail resolves the inflight entry with an error; the key stays uncached so
// a later statement retries.
func (c *resultCache) fail(key resultKey, err error) {
	c.mu.Lock()
	if f, ok := c.inflight[key]; ok {
		delete(c.inflight, key)
		f.err = err
		close(f.done)
	}
	c.mu.Unlock()
}

// len reports the number of cached (committed) entries.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.Len()
}
