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
//
// # Cost
//
// Bookkeeping is paid per new block, not per attempt per token.
//
// Chain reuse. A block's identity is a hash chained over every token before
// it (BlockHashes), so a prompt's chain depends only on the prompt and can
// be computed once, outside the cache: AcquireHashed and MatchLenHashed take
// the chain, and a caller that retries a rejected prompt — the serving
// engine re-offers a blocked queue head every step — hashes it once, not once
// per attempt. A prompt that follows another in a prefix-sorted schedule
// needs even less: BlockHashesAfter copies the predecessor's chain over the
// blocks their common prefix covers and resumes hashing there. Acquire and
// MatchLen hash from scratch and call the same entry points.
//
// A rejected attempt allocates nothing: the matched path is walked into a
// scratch slice the Cache owns and copied into the Lease only on success.
//
// Node recycling. An evicted trie node goes onto the Cache's free list and
// the next inserted block reuses it; only when the list is empty does a node
// come from a slab, and slabs start small and double, so a short-lived cache
// of a few dozen blocks does not pay for a large one's arena. Recycling must
// be safe against the eviction heap, whose entries are (node, lastUse
// snapshot) pairs that are dropped lazily when stale rather than removed: an
// entry left over from a node's previous life must never pass for a valid
// one of its next. It cannot, because of one invariant — a recycled node's
// lastUse is strictly above the seq of every entry in the heap at the moment
// it is recycled. The clock only moves forward, a node is recycled inside an
// Acquire that advanced the clock on entry and stamps the node with the new
// value, and everything pushed since that advance is an eviction-exposed
// parent, unpinned and therefore stamped by an earlier operation. From then
// on lastUse only grows, so `seq != lastUse` rejects the old entry whenever
// it surfaces. (In fact a node's stale entries all sort before its valid
// one, so the heap has popped them by the time the node is evicted; the
// invariant is what makes recycling safe without leaning on that.)
package kvcache

import (
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

	walk    []*node // scratch: the matched path of the Acquire in progress
	free    *node   // evicted nodes awaiting reuse, linked through parent
	slab    []node  // unused tail of the newest node slab
	slabbed int     // nodes allocated in slabs so far
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
	return c.MatchLenHashed(BlockHashes(tokens, c.cfg.BlockSize))
}

// MatchLenHashed is MatchLen for a prompt whose chain — BlockHashes over the
// cache's block size — the caller already holds.
func (c *Cache) MatchLenHashed(hashes []uint64) int {
	if c.cfg.Disabled {
		return 0
	}
	n := 0
	cur := c.root
	for _, h := range hashes {
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
	var hashes []uint64
	if !c.cfg.Disabled {
		hashes = BlockHashes(tokens, c.cfg.BlockSize)
	}
	return c.AcquireHashed(hashes, len(tokens), reserveTokens)
}

// AcquireHashed is Acquire for a prompt of the given length whose chain —
// BlockHashes over the cache's block size — the caller already holds, so a
// retried prompt is hashed once rather than once per attempt. A disabled
// cache ignores hashes. A rejected attempt allocates nothing.
func (c *Cache) AcquireHashed(hashes []uint64, prompt, reserveTokens int) (*Lease, bool) {
	c.clock++
	bs := int64(c.cfg.BlockSize)

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

	if len(hashes) != prompt/c.cfg.BlockSize {
		panic(fmt.Sprintf("kvcache: %d block hashes for a %d-token prompt at block size %d", len(hashes), prompt, c.cfg.BlockSize))
	}

	// Walk the existing prefix, pinning it immediately: the eviction pass
	// below must never reclaim blocks this request is about to reuse.
	walk := c.walk[:0]
	cur := c.root
	for _, h := range hashes {
		next := cur.child(h)
		if next == nil {
			break
		}
		cur = next
		next.refs++
		next.lastUse = c.clock
		walk = append(walk, next)
	}
	c.walk = walk

	newShared := int64(len(hashes) - len(walk))
	tailTokens := int64(prompt) - int64(len(hashes))*bs
	priv := ceilDiv(tailTokens+int64(reserveTokens), bs)
	if !c.ensure(newShared + priv) {
		// Undo the pins taken during the walk.
		for i := len(walk) - 1; i >= 0; i-- {
			n := walk[i]
			n.refs--
			if n.refs == 0 && n.leaf() {
				c.pushEvictable(n)
			}
		}
		c.stats.Rejections++
		return nil, false
	}

	path := make([]*node, len(walk), len(hashes))
	copy(path, walk)
	for _, h := range hashes[len(walk):] {
		next := c.newNode(node{hash: h, parent: cur, refs: 1, lastUse: c.clock})
		cur.addChild(next)
		cur = next
		path = append(path, next)
	}
	c.trie += newShared
	c.used += newShared + priv
	c.stats.InsertedBlocks += newShared

	matched := len(walk) * c.cfg.BlockSize
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
	for len(c.evict) > 0 {
		e := c.evict.pop()
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
		n.parent, c.free = c.free, n
		return true
	}
	return false
}

func (c *Cache) pushEvictable(n *node) {
	c.evict.push(evictEntry{n: n, seq: n.lastUse})
}

// newNode stores v in the most recently evicted node if there is one (see
// the package doc for why reuse is safe against the eviction heap), else in
// the next node of a slab. Slabs double from 8 up to 1024 nodes, so the arena
// tracks the trie's size at either end of the scale.
func (c *Cache) newNode(v node) *node {
	n := c.free
	if n != nil {
		c.free = n.parent
	} else {
		if len(c.slab) == 0 {
			c.slab = make([]node, min(max(8, c.slabbed), 1024))
			c.slabbed += len(c.slab)
		}
		n, c.slab = &c.slab[0], c.slab[1:]
	}
	*n = v
	return n
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

// BlockHashes chains FNV-1a over full blocks so a block's identity covers
// its entire prefix, exactly like vLLM's hash-based prefix caching. Element b
// identifies tokens[:(b+1)*blockSize]; a trailing partial block has none.
func BlockHashes(tokens []tokenizer.Token, blockSize int) []uint64 {
	return BlockHashesAfter(nil, nil, tokens, blockSize)
}

// BlockHashesAfter is BlockHashes(tokens, blockSize) computed from a
// predecessor: given prev and its chain prevHashes, the blocks lying wholly
// inside the two prompts' common prefix are copied and hashing resumes at
// the first block that is not. A prefix-sorted schedule makes that most of
// every prompt. With no predecessor (nil, nil) it hashes from the start.
func BlockHashesAfter(prev []tokenizer.Token, prevHashes []uint64, tokens []tokenizer.Token, blockSize int) []uint64 {
	shared := 0
	for shared < len(prev) && shared < len(tokens) && prev[shared] == tokens[shared] {
		shared++
	}
	out := make([]uint64, len(tokens)/blockSize)
	b := copy(out, prevHashes[:min(shared/blockSize, len(prevHashes))])
	var h uint64 = 1469598103934665603 // FNV offset basis
	if b > 0 {
		h = out[b-1]
	}
	const prime = 1099511628211
	for ; b < len(out); b++ {
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

// evictHeap is a min-heap on the snapshotted last-use time. push and pop
// sift exactly as container/heap's Push and Pop do — equal keys leave in the
// same order, which eviction order and so every virtual metric depends on —
// without boxing an entry into an interface per call.
type evictHeap []evictEntry

func (h *evictHeap) push(e evictEntry) {
	s := append(*h, e)
	*h = s
	for j := len(s) - 1; ; {
		i := (j - 1) / 2 // parent; 0 for j == 0, as in container/heap
		if i == j || s[j].seq >= s[i].seq {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *evictHeap) pop() evictEntry {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && s[r].seq < s[j].seq {
			j = r
		}
		if s[j].seq >= s[i].seq {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	e := s[n]
	s[n] = evictEntry{}
	*h = s[:n]
	return e
}
