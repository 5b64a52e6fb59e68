package kvcache

import (
	"fmt"

	"repro/internal/tokenizer"
)

// Test-only Cache and Lease methods: the serving engine neither grows a
// lease in flight, audits the trie, nor asks what a lease holds, so these
// live beside the tests that use them.

// MatchLen is MatchLenHashed for a prompt's tokens.
func (c *Cache) MatchLen(tokens []tokenizer.Token) int {
	if c.cfg.Disabled {
		return 0
	}
	return c.MatchLenHashed(BlockHashes(tokens, c.cfg.BlockSize))
}

// PrivateBlocks reports the lease's unshared block count.
func (l *Lease) PrivateBlocks() int64 { return l.privBlocks }

// SharedBlocks reports the number of trie blocks the lease pins.
func (l *Lease) SharedBlocks() int64 { return int64(l.shared) }

// TrieBlocks returns blocks held by the shared trie (cached prefixes).
func (c *Cache) TrieBlocks() int64 { return c.trie }

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

// CheckInvariants verifies internal accounting: every reachable block is
// live and linked to its parent, every spilled child is filed under its own
// hash, each block's spilled count matches the edges filed under it, no edge
// hangs off an unreachable block, and the block counts add up.
func (c *Cache) CheckInvariants() error {
	spilled := make(map[*node][]*node)
	for e, ch := range c.edges {
		if ch.hash != e.hash {
			return fmt.Errorf("kvcache: child filed under the wrong hash")
		}
		spilled[e.parent] = append(spilled[e.parent], ch)
	}
	seenEdges := 0
	var walk func(n *node) (int64, error)
	walk = func(n *node) (int64, error) {
		children := spilled[n]
		if int(n.spilled) != len(children) {
			return 0, fmt.Errorf("kvcache: spilled count %d but %d edges filed", n.spilled, len(children))
		}
		seenEdges += len(children)
		if n.only != nil {
			for _, ch := range children {
				if ch.hash == n.only.hash {
					return 0, fmt.Errorf("kvcache: spilled child duplicates the inline one")
				}
			}
			children = append(children[:len(children):len(children)], n.only)
		}
		var count int64
		for _, ch := range children {
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
	if seenEdges != len(c.edges) {
		return fmt.Errorf("kvcache: %d edges filed, %d under reachable blocks", len(c.edges), seenEdges)
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
