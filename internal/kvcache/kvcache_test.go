package kvcache

import (
	"math/rand"
	"testing"

	"repro/internal/tokenizer"
)

func toks(vals ...int) []tokenizer.Token {
	out := make([]tokenizer.Token, len(vals))
	for i, v := range vals {
		out[i] = tokenizer.Token(v)
	}
	return out
}

func seq(start, n int) []tokenizer.Token {
	out := make([]tokenizer.Token, n)
	for i := range out {
		out[i] = tokenizer.Token(start + i)
	}
	return out
}

func TestAcquireMissThenHit(t *testing.T) {
	c := New(Config{BlockSize: 4})
	prompt := seq(0, 10) // 2 full blocks + 2-token tail

	l1, ok := c.Acquire(prompt, 0)
	if !ok {
		t.Fatal("first acquire rejected")
	}
	if l1.Matched != 0 {
		t.Errorf("cold acquire matched %d", l1.Matched)
	}
	if l1.SharedBlocks() != 2 || l1.PrivateBlocks() != 1 {
		t.Errorf("shared=%d private=%d, want 2/1", l1.SharedBlocks(), l1.PrivateBlocks())
	}

	l2, ok := c.Acquire(prompt, 0)
	if !ok {
		t.Fatal("second acquire rejected")
	}
	if l2.Matched != 8 {
		t.Errorf("warm acquire matched %d, want 8 (2 blocks)", l2.Matched)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	c.Release(l1)
	c.Release(l2)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPartialPrefixMatch(t *testing.T) {
	c := New(Config{BlockSize: 4})
	a := append(seq(0, 8), toks(100, 101, 102, 103)...) // blocks A B C
	b := append(seq(0, 8), toks(200, 201, 202, 203)...) // blocks A B D
	l1, _ := c.Acquire(a, 0)
	l2, _ := c.Acquire(b, 0)
	if l2.Matched != 8 {
		t.Errorf("matched %d, want 8 (shared A,B)", l2.Matched)
	}
	c.Release(l1)
	c.Release(l2)
}

func TestMatchLenDoesNotMutate(t *testing.T) {
	c := New(Config{BlockSize: 4})
	p := seq(0, 8)
	if got := c.MatchLen(p); got != 0 {
		t.Errorf("cold MatchLen = %d", got)
	}
	if c.UsedBlocks() != 0 || c.TrieBlocks() != 0 {
		t.Error("MatchLen allocated blocks")
	}
	l, _ := c.Acquire(p, 0)
	c.Release(l)
	if got := c.MatchLen(p); got != 8 {
		t.Errorf("warm MatchLen = %d, want 8", got)
	}
}

func TestShortPromptNoTrie(t *testing.T) {
	c := New(Config{BlockSize: 16})
	l, ok := c.Acquire(seq(0, 10), 0) // shorter than one block
	if !ok {
		t.Fatal("rejected")
	}
	if l.SharedBlocks() != 0 || l.PrivateBlocks() != 1 {
		t.Errorf("shared=%d private=%d, want 0/1", l.SharedBlocks(), l.PrivateBlocks())
	}
	c.Release(l)
	if c.UsedBlocks() != 0 {
		t.Errorf("blocks leaked: %d", c.UsedBlocks())
	}
}

func TestDisabledMode(t *testing.T) {
	c := New(Config{BlockSize: 4, Disabled: true})
	p := seq(0, 16)
	l1, _ := c.Acquire(p, 0)
	l2, ok := c.Acquire(p, 0)
	if !ok {
		t.Fatal("rejected")
	}
	if l2.Matched != 0 {
		t.Errorf("disabled cache matched %d", l2.Matched)
	}
	// No sharing: each lease holds its own 4 blocks.
	if c.UsedBlocks() != 8 {
		t.Errorf("used = %d, want 8", c.UsedBlocks())
	}
	c.Release(l1)
	c.Release(l2)
	if c.UsedBlocks() != 0 {
		t.Errorf("leak: %d", c.UsedBlocks())
	}
	if c.Stats().HitRate() != 0 {
		t.Error("disabled cache reported hits")
	}
}

func TestSharingReducesMemory(t *testing.T) {
	shared := New(Config{BlockSize: 4})
	p := seq(0, 16)
	var leases []*Lease
	for i := 0; i < 5; i++ {
		l, ok := shared.Acquire(p, 0)
		if !ok {
			t.Fatal("rejected")
		}
		leases = append(leases, l)
	}
	// 4 trie blocks shared by all 5 leases; no tails.
	if shared.UsedBlocks() != 4 {
		t.Errorf("shared pool used %d blocks, want 4", shared.UsedBlocks())
	}
	for _, l := range leases {
		shared.Release(l)
	}
	// Prefix remains cached after release.
	if shared.TrieBlocks() != 4 {
		t.Errorf("trie dropped to %d after release", shared.TrieBlocks())
	}
}

func TestReservationBlocks(t *testing.T) {
	c := New(Config{BlockSize: 4})
	l, _ := c.Acquire(seq(0, 8), 10) // reserve 10 tokens -> 3 private blocks
	if l.PrivateBlocks() != 3 {
		t.Errorf("private = %d, want 3", l.PrivateBlocks())
	}
	c.Release(l)
}

func TestCapacityRejection(t *testing.T) {
	c := New(Config{BlockSize: 4, CapacityBlocks: 2})
	if _, ok := c.Acquire(seq(0, 16), 0); ok {
		t.Error("over-capacity acquire accepted")
	}
	if c.Stats().Rejections != 1 {
		t.Errorf("rejections = %d", c.Stats().Rejections)
	}
	// A fitting request still works.
	l, ok := c.Acquire(seq(0, 8), 0)
	if !ok {
		t.Fatal("fitting acquire rejected")
	}
	c.Release(l)
}

func TestEvictionLRU(t *testing.T) {
	c := New(Config{BlockSize: 4, CapacityBlocks: 4})
	a := seq(0, 8)   // 2 blocks
	b := seq(100, 8) // 2 blocks
	d := seq(200, 8) // 2 blocks

	la, _ := c.Acquire(a, 0)
	c.Release(la)
	lb, _ := c.Acquire(b, 0)
	c.Release(lb)
	// Touch a to make b the LRU.
	la2, _ := c.Acquire(a, 0)
	c.Release(la2)

	ld, ok := c.Acquire(d, 0)
	if !ok {
		t.Fatal("acquire with eviction failed")
	}
	c.Release(ld)
	if got := c.MatchLen(b); got != 0 {
		t.Errorf("LRU sequence b still cached (%d tokens)", got)
	}
	if got := c.MatchLen(a); got == 0 {
		t.Error("recently used sequence a was evicted")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBranchEvictionBelowRoot covers the child representation's switch from
// one inline child to a map: a block that gained a second child must still
// be found through either, lose them one by one, and become an evictable
// leaf itself once both are gone.
func TestBranchEvictionBelowRoot(t *testing.T) {
	c := New(Config{BlockSize: 4, CapacityBlocks: 3})
	a := append(seq(0, 4), seq(100, 4)...) // blocks P A
	b := append(seq(0, 4), seq(200, 4)...) // blocks P B
	for _, p := range [][]tokenizer.Token{a, b} {
		l, ok := c.Acquire(p, 0)
		if !ok {
			t.Fatal("acquire rejected")
		}
		c.Release(l)
	}
	if c.MatchLen(a) != 8 || c.MatchLen(b) != 8 {
		t.Fatalf("branches cached %d and %d tokens, want 8 and 8", c.MatchLen(a), c.MatchLen(b))
	}
	// Three unrelated blocks need the whole pool: A, B, then the exposed P go.
	l, ok := c.Acquire(seq(300, 12), 0)
	if !ok {
		t.Fatal("acquire needing every block rejected")
	}
	c.Release(l)
	if got := c.Stats().EvictedBlocks; got != 3 {
		t.Errorf("evicted %d blocks, want 3", got)
	}
	if c.MatchLen(a) != 0 || c.MatchLen(b) != 0 {
		t.Error("evicted branches still match")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPinnedBlocksSurviveEviction(t *testing.T) {
	c := New(Config{BlockSize: 4, CapacityBlocks: 4})
	a := seq(0, 8)
	la, ok := c.Acquire(a, 0) // pinned, not released
	if !ok {
		t.Fatal("acquire a")
	}
	// This needs 2 blocks; only eviction candidates are a's pinned blocks.
	if _, ok := c.Acquire(seq(100, 12), 0); ok {
		t.Error("acquire succeeded by evicting pinned blocks")
	}
	c.Release(la)
	// Now eviction can proceed.
	lb, ok := c.Acquire(seq(100, 12), 0)
	if !ok {
		t.Fatal("acquire after release failed")
	}
	c.Release(lb)
}

func TestGrow(t *testing.T) {
	c := New(Config{BlockSize: 4, CapacityBlocks: 4})
	l, _ := c.Acquire(seq(0, 8), 0)
	if !c.Grow(l, 2) {
		t.Fatal("grow rejected")
	}
	if l.PrivateBlocks() != 2 {
		t.Errorf("private = %d", l.PrivateBlocks())
	}
	if c.Grow(l, 10) {
		t.Error("over-capacity grow accepted")
	}
	if !c.Grow(l, 0) {
		t.Error("zero grow rejected")
	}
	c.Release(l)
	if c.UsedBlocks() != 2 { // trie remains
		t.Errorf("used = %d, want 2", c.UsedBlocks())
	}
}

func TestDoubleReleaseIsSafe(t *testing.T) {
	c := New(Config{BlockSize: 4})
	l, _ := c.Acquire(seq(0, 8), 0)
	c.Release(l)
	c.Release(l)
	c.Release(nil)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHitRateAccounting(t *testing.T) {
	c := New(Config{BlockSize: 4})
	p := seq(0, 8)
	l1, _ := c.Acquire(p, 0)
	c.Release(l1)
	l2, _ := c.Acquire(p, 0)
	c.Release(l2)
	st := c.Stats()
	if st.PromptTokens != 16 || st.MatchedTokens != 8 {
		t.Errorf("stats = %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Errorf("hit rate = %v", st.HitRate())
	}
}

func TestRandomizedInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	c := New(Config{BlockSize: 4, CapacityBlocks: 64})
	var live []*Lease
	for step := 0; step < 3000; step++ {
		switch {
		case len(live) > 0 && r.Intn(3) == 0:
			i := r.Intn(len(live))
			c.Release(live[i])
			live = append(live[:i], live[i+1:]...)
		case len(live) > 0 && r.Intn(4) == 0:
			c.Grow(live[r.Intn(len(live))], int64(r.Intn(3)))
		default:
			// Draw from a small id space so prefixes collide frequently.
			base := r.Intn(8) * 1000
			n := 1 + r.Intn(40)
			if l, ok := c.Acquire(seq(base, n), r.Intn(8)); ok {
				live = append(live, l)
			}
		}
		if step%97 == 0 {
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	for _, l := range live {
		c.Release(l)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.MatchedTokens > st.PromptTokens {
		t.Errorf("matched %d > prompt %d", st.MatchedTokens, st.PromptTokens)
	}
}

func TestBlockHashChaining(t *testing.T) {
	// Same block content at different positions must hash differently
	// (identity covers the whole prefix).
	a := BlockHashes(toks(1, 2, 3, 4, 1, 2, 3, 4), 4)
	if a[0] == a[1] {
		t.Error("positional chaining broken: repeated block collides")
	}
	b := BlockHashes(toks(9, 9, 9, 9, 1, 2, 3, 4), 4)
	if a[1] == b[1] {
		t.Error("second block hash ignores prefix")
	}
}
