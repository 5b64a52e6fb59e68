package kvcache

import (
	"container/heap"

	"repro/internal/tokenizer"
)

// The reference model: the cache as it was before bookkeeping became
// O(new blocks) — every Acquire and MatchLen hashes the prompt from token 0,
// the eviction heap is container/heap over boxed entries, every inserted
// block is a fresh allocation and nothing is recycled. The differential
// tests hold the shipped Cache to it observable for observable.

// refLease is a request's hold on cache memory: a pinned shared prefix path
// plus private (unshared) blocks for the prompt tail, and reserved space for
// generated tokens.
type refLease struct {
	// Matched is the number of prompt tokens found in cache at Acquire time.
	Matched int
	// Prompt is the prompt length in tokens.
	Prompt int

	path       []*refNode
	privBlocks int64
	released   bool
}

// PrivateBlocks reports the lease's unshared block count.
func (l *refLease) PrivateBlocks() int64 { return l.privBlocks }

// SharedBlocks reports the number of trie blocks the lease pins.
func (l *refLease) SharedBlocks() int64 { return int64(len(l.path)) }

// refNode is one cached block. Almost every block has at most one child (a
// prompt's chain), so the first child is held inline and the map is only
// allocated when a second one arrives; from then on all children live in it.
type refNode struct {
	hash    uint64
	parent  *refNode
	only    *refNode            // the single child while many is nil
	many    map[uint64]*refNode // every child, once there have been two
	refs    int32
	lastUse int64
	dead    bool
}

func (n *refNode) child(h uint64) *refNode {
	if n.many != nil {
		return n.many[h]
	}
	if n.only != nil && n.only.hash == h {
		return n.only
	}
	return nil
}

func (n *refNode) addChild(ch *refNode) {
	switch {
	case n.many != nil:
		n.many[ch.hash] = ch
	case n.only == nil:
		n.only = ch
	default:
		n.many = map[uint64]*refNode{n.only.hash: n.only, ch.hash: ch}
		n.only = nil
	}
}

func (n *refNode) removeChild(ch *refNode) {
	if n.many != nil {
		delete(n.many, ch.hash)
	} else {
		n.only = nil
	}
}

func (n *refNode) leaf() bool { return n.only == nil && len(n.many) == 0 }

// refCache is a single device pool. It is not safe for concurrent use; the
// serving engine is single-threaded over a virtual clock. Concurrent
// executors (internal/runtime) respect this by confinement: every engine
// run builds its own refCache and no refCache ever crosses a goroutine boundary.
type refCache struct {
	cfg   Config
	root  *refNode
	used  int64 // total blocks in use (trie + private)
	trie  int64 // blocks held by the trie
	clock int64
	stats Stats
	evict refHeap
}

// newRef returns an empty cache. BlockSize defaults to 16.
func newRef(cfg Config) *refCache {
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 16
	}
	return &refCache{
		cfg:  cfg,
		root: &refNode{},
	}
}

// UsedBlocks returns total blocks currently allocated.
func (c *refCache) UsedBlocks() int64 { return c.used }

// TrieBlocks returns blocks held by the shared trie (cached prefixes).
func (c *refCache) TrieBlocks() int64 { return c.trie }

// Stats returns a copy of the accumulated counters.
func (c *refCache) Stats() Stats { return c.stats }

// MatchLen reports how many tokens of the sequence are currently cached,
// without pinning or inserting. Used by schedulers to estimate cost.
func (c *refCache) MatchLen(tokens []tokenizer.Token) int {
	if c.cfg.Disabled {
		return 0
	}
	n := 0
	cur := c.root
	for _, h := range refBlockHashes(tokens, c.cfg.BlockSize) {
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
func (c *refCache) Acquire(tokens []tokenizer.Token, reserveTokens int) (*refLease, bool) {
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
		return &refLease{Prompt: prompt, privBlocks: need}, true
	}

	hashes := refBlockHashes(tokens, c.cfg.BlockSize)

	// Walk the existing prefix, pinning it immediately: the eviction pass
	// below must never reclaim blocks this request is about to reuse.
	var path []*refNode
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
		next := &refNode{hash: h, parent: cur, refs: 1, lastUse: c.clock}
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
	return &refLease{Matched: matched, Prompt: prompt, path: path, privBlocks: priv}, true
}

// Release ends a lease: private blocks are freed immediately and the pinned
// trie path is unpinned, leaving the prefix cached for future reuse (it
// becomes evictable once no other lease pins it).
func (c *refCache) Release(l *refLease) {
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
func (c *refCache) ensure(need int64) bool {
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
func (c *refCache) evictOne() bool {
	for c.evict.Len() > 0 {
		e := heap.Pop(&c.evict).(refEntry)
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

func (c *refCache) pushEvictable(n *refNode) {
	heap.Push(&c.evict, refEntry{n: n, seq: n.lastUse})
}

// Grow reserves additional private blocks mid-flight (for generation beyond
// the initial reservation). It reports false when the pool is full.
func (c *refCache) Grow(l *refLease, addBlocks int64) bool {
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

// refBlockHashes chains FNV-1a over full blocks so a block's identity covers
// its entire prefix, exactly like vLLM's hash-based prefix caching.
func refBlockHashes(tokens []tokenizer.Token, blockSize int) []uint64 {
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

// refEntry is an immutable (refNode, last-use snapshot) pair; see evictOne.
type refEntry struct {
	n   *refNode
	seq int64
}

// refHeap is a min-heap on the snapshotted last-use time.
type refHeap []refEntry

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].seq < h[j].seq }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEntry)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = refEntry{}
	*h = old[:n-1]
	return x
}
