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
// blocks their common prefix covers and resumes hashing there. Acquire
// hashes from scratch and calls the same entry point.
//
// Admission allocates nothing: AcquireHashed, admitted or rejected, and
// Release take no heap object beyond the amortized growth of node slabs, the
// eviction heap and the edge map. What a request holds lives elsewhere:
//
//   - The lease lives in its caller, which hands AcquireHashed a Lease to
//     fill (the serving engine keeps one in each request). A Lease is its
//     deepest pinned block plus a count, not a path: every ancestor of a
//     pinned block is pinned by the same lease, so Release unpins by walking
//     parent links, leaf to root.
//   - The chain lives in the caller's slice. BlockHashesAfter appends to it,
//     so the engine hashes a whole run into one arena sized on entry.
//   - A block holds its first child inline; the second and later are filed
//     in one edge map per Cache, keyed by (parent, hash). Only a leaf is
//     evicted, so no edge is filed under a node when it is recycled.
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
	"slices"

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
// generated tokens. The zero Lease holds nothing; AcquireHashed fills one in
// place. A Lease must not be copied while it is held.
type Lease struct {
	// Matched is the number of prompt tokens found in cache at Acquire time.
	Matched int
	// Prompt is the prompt length in tokens.
	Prompt int

	tail       *node // the deepest pinned block; nil when shared is 0
	shared     int   // blocks pinned: tail and its ancestors below the root
	privBlocks int64
	released   bool
}

// node is one cached block. Almost every block has at most one child (a
// prompt's chain), so the first child is held inline; any others are filed
// in the Cache's edge map under (node, hash), and spilled counts them.
type node struct {
	hash    uint64
	parent  *node
	only    *node // the inline child, if any
	spilled int32 // children filed in Cache.edges
	refs    int32
	lastUse int64
	dead    bool
}

func (n *node) leaf() bool { return n.only == nil && n.spilled == 0 }

// edge keys a spilled child in Cache.edges.
type edge struct {
	parent *node
	hash   uint64
}

func (c *Cache) child(n *node, h uint64) *node {
	if n.only != nil && n.only.hash == h {
		return n.only
	}
	if n.spilled > 0 {
		return c.edges[edge{n, h}]
	}
	return nil
}

func (c *Cache) addChild(n, ch *node) {
	if n.only == nil {
		n.only = ch
		return
	}
	if c.edges == nil {
		c.edges = make(map[edge]*node)
	}
	c.edges[edge{n, ch.hash}] = ch
	n.spilled++
}

func (c *Cache) removeChild(n, ch *node) {
	if n.only == ch {
		n.only = nil
		return
	}
	delete(c.edges, edge{n, ch.hash})
	n.spilled--
}

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
	edges map[edge]*node // each block's children beyond its inline one

	free    *node  // evicted nodes awaiting reuse, linked through parent
	slab    []node // unused tail of the newest node slab
	slabbed int    // nodes allocated in slabs so far
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

// Stats returns a copy of the accumulated counters.
func (c *Cache) Stats() Stats { return c.stats }

// MatchLenHashed reports how many tokens of a prompt are currently cached,
// without pinning or inserting, given its chain — BlockHashes over the
// cache's block size. The serving engine's scheduler uses it to estimate
// cost.
func (c *Cache) MatchLenHashed(hashes []uint64) int {
	if c.cfg.Disabled {
		return 0
	}
	n := 0
	cur := c.root
	for _, h := range hashes {
		next := c.child(cur, h)
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
	l := new(Lease)
	if !c.AcquireHashed(l, hashes, len(tokens), reserveTokens) {
		return nil, false
	}
	return l, true
}

// AcquireHashed is Acquire into the caller's lease for a prompt of the given
// length whose chain — BlockHashes over the cache's block size — the caller
// already holds, so a retried prompt is hashed once rather than once per
// attempt. A disabled cache ignores hashes. On success it overwrites *l; on
// rejection it leaves *l alone. It allocates nothing but amortized growth.
func (c *Cache) AcquireHashed(l *Lease, hashes []uint64, prompt, reserveTokens int) bool {
	c.clock++
	bs := int64(c.cfg.BlockSize)

	if c.cfg.Disabled {
		need := ceilDiv(int64(prompt)+int64(reserveTokens), bs)
		if !c.ensure(need) {
			c.stats.Rejections++
			return false
		}
		c.used += need
		c.stats.PromptTokens += int64(prompt)
		*l = Lease{Prompt: prompt, privBlocks: need}
		return true
	}

	if len(hashes) != prompt/c.cfg.BlockSize {
		panic(fmt.Sprintf("kvcache: %d block hashes for a %d-token prompt at block size %d", len(hashes), prompt, c.cfg.BlockSize))
	}

	// Walk the existing prefix, pinning it immediately: the eviction pass
	// below must never reclaim blocks this request is about to reuse.
	walked := 0
	cur := c.root
	for _, h := range hashes {
		next := c.child(cur, h)
		if next == nil {
			break
		}
		cur = next
		next.refs++
		next.lastUse = c.clock
		walked++
	}

	newShared := int64(len(hashes) - walked)
	tailTokens := int64(prompt) - int64(len(hashes))*bs
	priv := ceilDiv(tailTokens+int64(reserveTokens), bs)
	if !c.ensure(newShared + priv) {
		// Undo the pins taken during the walk, leaf to root.
		for n := cur; n != c.root; n = n.parent {
			n.refs--
			if n.refs == 0 && n.leaf() {
				c.pushEvictable(n)
			}
		}
		c.stats.Rejections++
		return false
	}

	for _, h := range hashes[walked:] {
		next := c.newNode(node{hash: h, parent: cur, refs: 1, lastUse: c.clock})
		c.addChild(cur, next)
		cur = next
	}
	c.trie += newShared
	c.used += newShared + priv
	c.stats.InsertedBlocks += newShared

	matched := walked * c.cfg.BlockSize
	if matched > prompt {
		matched = prompt
	}
	c.stats.MatchedTokens += int64(matched)
	c.stats.PromptTokens += int64(prompt)
	*l = Lease{Matched: matched, Prompt: prompt, tail: cur, shared: len(hashes), privBlocks: priv}
	return true
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
	n := l.tail
	for range l.shared {
		n.refs--
		n.lastUse = c.clock
		if n.refs == 0 && n.leaf() {
			c.pushEvictable(n)
		}
		n = n.parent
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
		c.removeChild(n.parent, n)
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

// BlockHashes chains FNV-1a over full blocks so a block's identity covers
// its entire prefix, exactly like vLLM's hash-based prefix caching. Element b
// identifies tokens[:(b+1)*blockSize]; a trailing partial block has none.
func BlockHashes(tokens []tokenizer.Token, blockSize int) []uint64 {
	return BlockHashesAfter(nil, nil, nil, tokens, blockSize)
}

// BlockHashesAfter appends BlockHashes(tokens, blockSize) to dst, computed
// from a predecessor: given prev and its chain prevHashes, the blocks lying
// wholly inside the two prompts' common prefix are copied and hashing resumes
// at the first block that is not. A prefix-sorted schedule makes that most of
// every prompt. With no predecessor (nil, nil) it hashes from the start. When
// dst has the capacity, nothing is allocated; prevHashes may lie in dst's
// backing array below len(dst).
func BlockHashesAfter(dst []uint64, prev []tokenizer.Token, prevHashes []uint64, tokens []tokenizer.Token, blockSize int) []uint64 {
	shared := 0
	for shared < len(prev) && shared < len(tokens) && prev[shared] == tokens[shared] {
		shared++
	}
	n := len(tokens) / blockSize
	dst = slices.Grow(dst, n)
	out := dst[len(dst) : len(dst)+n]
	b := copy(out, prevHashes[:min(shared/blockSize, len(prevHashes))])
	var h uint64 = 1469598103934665603 // FNV offset basis
	if b > 0 {
		h = out[b-1]
	}
	const prime = 1099511628211
	for ; b < n; b++ {
		for _, t := range tokens[b*blockSize : (b+1)*blockSize] {
			h ^= uint64(uint32(t))
			h *= prime
		}
		out[b] = h
	}
	return dst[:len(dst)+n]
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
