// Package kvcache implements a paged, prefix-sharing KV cache in the style
// of vLLM's automatic prefix caching / SGLang's RadixAttention: token
// sequences are split into fixed-size blocks, identical block chains are
// stored once (a trie over block hashes), and blocks are reference-counted
// so concurrently running requests share prefix memory. Unreferenced blocks
// are evicted in LRU order, leaves first.
//
// The cache accounts two benefits of prefix reuse, both of which the paper's
// end-to-end numbers depend on: matched tokens skip prefill computation, and
// shared blocks free KV memory, allowing larger batches.
package kvcache

import (
	"container/heap"
	"fmt"

	"repro/internal/tokenizer"
)

// Config sizes the cache.
type Config struct {
	// BlockSize is the number of tokens per KV block (vLLM's default is 16).
	BlockSize int
	// CapacityBlocks bounds the total blocks (shared + private). Zero or
	// negative means unlimited.
	CapacityBlocks int64
	// Disabled turns prefix sharing off: every request gets private blocks
	// only. This is the No Cache baseline; capacity accounting still applies.
	Disabled bool
}

// Stats aggregates cache behaviour over a run.
//
// Counting fields are conserved accounting: the llmqlint accounting
// analyzer rejects keyed literals that set some counters and omit others.
//
//llmqlint:accounting
type Stats struct {
	// MatchedTokens is the total number of prompt tokens served from cache.
	MatchedTokens int64
	// PromptTokens is the total number of prompt tokens offered.
	PromptTokens int64
	// InsertedBlocks counts trie blocks created; EvictedBlocks counts blocks
	// reclaimed by LRU eviction.
	InsertedBlocks int64
	EvictedBlocks  int64
	// Rejections counts Acquire calls that failed for lack of memory.
	Rejections int64
}

// HitRate is MatchedTokens / PromptTokens.
func (s Stats) HitRate() float64 {
	if s.PromptTokens == 0 {
		return 0
	}
	return float64(s.MatchedTokens) / float64(s.PromptTokens)
}

// Lease is a request's hold on cache memory: a pinned shared prefix path
// plus private (unshared) blocks for the prompt tail, and reserved space for
// generated tokens.
type Lease struct {
	// Matched is the number of prompt tokens found in cache at Acquire time.
	Matched int
	// Prompt is the prompt length in tokens.
	Prompt int

	path       []*node
	privBlocks int64
	released   bool
}

// PrivateBlocks reports the lease's unshared block count.
func (l *Lease) PrivateBlocks() int64 { return l.privBlocks }

// SharedBlocks reports the number of trie blocks the lease pins.
func (l *Lease) SharedBlocks() int64 { return int64(len(l.path)) }

// node is one cached block. Almost every block has at most one child (a
// prompt's chain), so the first child is held inline and the map is only
// allocated when a second one arrives; from then on all children live in it.
type node struct {
	hash    uint64
	parent  *node
	only    *node            // the single child while many is nil
	many    map[uint64]*node // every child, once there have been two
	refs    int32
	lastUse int64
	dead    bool
}

func (n *node) child(h uint64) *node {
	if n.many != nil {
		return n.many[h]
	}
	if n.only != nil && n.only.hash == h {
		return n.only
	}
	return nil
}

func (n *node) addChild(ch *node) {
	switch {
	case n.many != nil:
		n.many[ch.hash] = ch
	case n.only == nil:
		n.only = ch
	default:
		n.many = map[uint64]*node{n.only.hash: n.only, ch.hash: ch}
		n.only = nil
	}
}

func (n *node) removeChild(ch *node) {
	if n.many != nil {
		delete(n.many, ch.hash)
	} else {
		n.only = nil
	}
}

func (n *node) leaf() bool { return n.only == nil && len(n.many) == 0 }

// Cache is a single device pool. It is not safe for concurrent use; the
// serving engine is single-threaded over a virtual clock. Concurrent
// executors (internal/runtime) respect this by confinement: every engine
// run builds its own Cache and no Cache ever crosses a goroutine boundary.
type Cache struct {
	cfg   Config
	root  *node
	used  int64 // total blocks in use (trie + private)
	trie  int64 // blocks held by the trie
	clock int64
	stats Stats
	evict evictHeap
}

// New returns an empty cache. BlockSize defaults to 16.
func New(cfg Config) *Cache {
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 16
	}
	return &Cache{
		cfg:  cfg,
		root: &node{},
	}
}

// UsedBlocks returns total blocks currently allocated.
func (c *Cache) UsedBlocks() int64 { return c.used }

// TrieBlocks returns blocks held by the shared trie (cached prefixes).
func (c *Cache) TrieBlocks() int64 { return c.trie }

// Stats returns a copy of the accumulated counters.
func (c *Cache) Stats() Stats { return c.stats }

// MatchLen reports how many tokens of the sequence are currently cached,
// without pinning or inserting. Used by schedulers to estimate cost.
func (c *Cache) MatchLen(tokens []tokenizer.Token) int {
	if c.cfg.Disabled {
		return 0
	}
	n := 0
	cur := c.root
	for _, h := range blockHashes(tokens, c.cfg.BlockSize) {
		next := cur.child(h)
		if next == nil {
			break
		}
		cur = next
		n += c.cfg.BlockSize
	}
	return n
}

// Acquire admits a prompt: it matches the longest cached block prefix, pins
// it, inserts the remaining full blocks, and reserves private space for the
// prompt tail plus reserveTokens of future generation. It reports false if
// the pool cannot hold the request even after evicting every unpinned block;
// the caller should retry after other requests release memory.
func (c *Cache) Acquire(tokens []tokenizer.Token, reserveTokens int) (*Lease, bool) {
	c.clock++
	bs := int64(c.cfg.BlockSize)
	prompt := len(tokens)

	if c.cfg.Disabled {
		need := ceilDiv(int64(prompt)+int64(reserveTokens), bs)
		if !c.ensure(need) {
			c.stats.Rejections++
			return nil, false
		}
		c.used += need
		c.stats.PromptTokens += int64(prompt)
		return &Lease{Prompt: prompt, privBlocks: need}, true
	}

	hashes := blockHashes(tokens, c.cfg.BlockSize)

	// Walk the existing prefix, pinning it immediately: the eviction pass
	// below must never reclaim blocks this request is about to reuse.
	var path []*node
	cur := c.root
	matchedBlocks := 0
	for _, h := range hashes {
		next := cur.child(h)
		if next == nil {
			break
		}
		cur = next
		next.refs++
		next.lastUse = c.clock
		path = append(path, next)
		matchedBlocks++
	}

	newShared := int64(len(hashes) - matchedBlocks)
	tailTokens := int64(prompt) - int64(len(hashes))*bs
	priv := ceilDiv(tailTokens+int64(reserveTokens), bs)
	if !c.ensure(newShared + priv) {
		// Undo the pins taken during the walk.
		for i := len(path) - 1; i >= 0; i-- {
			n := path[i]
			n.refs--
			if n.refs == 0 && n.leaf() {
				c.pushEvictable(n)
			}
		}
		c.stats.Rejections++
		return nil, false
	}

	for _, h := range hashes[matchedBlocks:] {
		next := &node{hash: h, parent: cur, refs: 1, lastUse: c.clock}
		cur.addChild(next)
		cur = next
		path = append(path, next)
	}
	c.trie += newShared
	c.used += newShared + priv
	c.stats.InsertedBlocks += newShared

	matched := matchedBlocks * c.cfg.BlockSize
	if matched > prompt {
		matched = prompt
	}
	c.stats.MatchedTokens += int64(matched)
	c.stats.PromptTokens += int64(prompt)
	return &Lease{Matched: matched, Prompt: prompt, path: path, privBlocks: priv}, true
}

// Release ends a lease: private blocks are freed immediately and the pinned
// trie path is unpinned, leaving the prefix cached for future reuse (it
// becomes evictable once no other lease pins it).
func (c *Cache) Release(l *Lease) {
	if l == nil || l.released {
		return
	}
	l.released = true
	c.clock++
	c.used -= l.privBlocks
	for i := len(l.path) - 1; i >= 0; i-- {
		n := l.path[i]
		n.refs--
		n.lastUse = c.clock
		if n.refs == 0 && n.leaf() {
			c.pushEvictable(n)
		}
	}
}

// ensure makes room for need blocks, evicting unpinned LRU leaves if
// required. It reports false when capacity cannot be reached.
func (c *Cache) ensure(need int64) bool {
	if c.cfg.CapacityBlocks <= 0 {
		return true
	}
	if need > c.cfg.CapacityBlocks {
		return false
	}
	for c.used+need > c.cfg.CapacityBlocks {
		if !c.evictOne() {
			return false
		}
	}
	return true
}

// evictOne removes the least-recently-used unreferenced leaf. Returns false
// when nothing is evictable.
//
// Heap entries snapshot lastUse at push time so ordering keys never mutate
// inside the heap. A popped entry whose snapshot is stale is simply dropped:
// every transition back to the evictable state (Release reaching zero refs,
// or a child eviction exposing a parent leaf) pushes a fresh entry.
func (c *Cache) evictOne() bool {
	for c.evict.Len() > 0 {
		e := heap.Pop(&c.evict).(evictEntry)
		n := e.n
		if n.dead || n.refs > 0 || !n.leaf() || e.seq != n.lastUse {
			continue
		}
		n.dead = true
		n.parent.removeChild(n)
		c.trie--
		c.used--
		c.stats.EvictedBlocks++
		if p := n.parent; p != c.root && p.refs == 0 && p.leaf() {
			c.pushEvictable(p)
		}
		return true
	}
	return false
}

func (c *Cache) pushEvictable(n *node) {
	heap.Push(&c.evict, evictEntry{n: n, seq: n.lastUse})
}

// Grow reserves additional private blocks mid-flight (for generation beyond
// the initial reservation). It reports false when the pool is full.
func (c *Cache) Grow(l *Lease, addBlocks int64) bool {
	if addBlocks <= 0 {
		return true
	}
	if !c.ensure(addBlocks) {
		return false
	}
	c.used += addBlocks
	l.privBlocks += addBlocks
	return true
}

// CheckInvariants verifies internal accounting; used by tests and the
// simulator's debug mode.
func (c *Cache) CheckInvariants() error {
	var walk func(n *node) (int64, error)
	walk = func(n *node) (int64, error) {
		var count int64
		children := n.many
		if n.only != nil {
			if n.many != nil {
				return 0, fmt.Errorf("kvcache: inline child beside a child map")
			}
			children = map[uint64]*node{n.only.hash: n.only}
		}
		for h, ch := range children {
			if ch.hash != h {
				return 0, fmt.Errorf("kvcache: child filed under the wrong hash")
			}
			if ch.dead {
				return 0, fmt.Errorf("kvcache: dead node reachable")
			}
			if ch.parent != n {
				return 0, fmt.Errorf("kvcache: broken parent link")
			}
			sub, err := walk(ch)
			if err != nil {
				return 0, err
			}
			count += 1 + sub
		}
		return count, nil
	}
	reachable, err := walk(c.root)
	if err != nil {
		return err
	}
	if reachable != c.trie {
		return fmt.Errorf("kvcache: trie accounting %d != reachable %d", c.trie, reachable)
	}
	if c.cfg.CapacityBlocks > 0 && c.used > c.cfg.CapacityBlocks {
		return fmt.Errorf("kvcache: used %d exceeds capacity %d", c.used, c.cfg.CapacityBlocks)
	}
	if c.trie > c.used {
		return fmt.Errorf("kvcache: trie %d exceeds used %d", c.trie, c.used)
	}
	return nil
}

// blockHashes chains FNV-1a over full blocks so a block's identity covers
// its entire prefix, exactly like vLLM's hash-based prefix caching.
func blockHashes(tokens []tokenizer.Token, blockSize int) []uint64 {
	n := len(tokens) / blockSize
	out := make([]uint64, n)
	var h uint64 = 1469598103934665603 // FNV offset basis
	const prime = 1099511628211
	for b := 0; b < n; b++ {
		for _, t := range tokens[b*blockSize : (b+1)*blockSize] {
			h ^= uint64(uint32(t))
			h *= prime
		}
		out[b] = h
	}
	return out
}

func ceilDiv(a, b int64) int64 {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// evictEntry is an immutable (node, last-use snapshot) pair; see evictOne.
type evictEntry struct {
	n   *node
	seq int64
}

// evictHeap is a min-heap on the snapshotted last-use time.
type evictHeap []evictEntry

func (h evictHeap) Len() int            { return len(h) }
func (h evictHeap) Less(i, j int) bool  { return h[i].seq < h[j].seq }
func (h evictHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *evictHeap) Push(x interface{}) { *h = append(*h, x.(evictEntry)) }
func (h *evictHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = evictEntry{}
	*h = old[:n-1]
	return x
}
