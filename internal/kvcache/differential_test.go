package kvcache

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tokenizer"
)

// randomPrompt draws from a few token families and sometimes switches family
// mid-prompt, so prompts share prefixes of every length and branch off each
// other inside and at the edge of blocks.
func randomPrompt(r *rand.Rand) []tokenizer.Token {
	p := seq(r.Intn(5)*1000, 1+r.Intn(44))
	if r.Intn(3) == 0 {
		cut := r.Intn(len(p))
		copy(p[cut:], seq(5000+r.Intn(3)*1000, len(p)-cut))
	}
	return p
}

// fanOutPrompt is one of six first blocks followed by one of twelve second
// blocks and a tail, so a first block's children mostly spill into the edge
// map, and pool pressure evicts them all and then the block itself.
func fanOutPrompt(r *rand.Rand) []tokenizer.Token {
	return append(seq(r.Intn(6)*1000, 4), seq(10_000+r.Intn(12)*100, 1+r.Intn(12))...)
}

// TestDifferentialAgainstReference drives the cache and the reference model
// through the same random Acquire/Release/Grow/MatchLen sequence on a pool a
// few prompts deep, and requires every observable to agree after every
// operation: admission verdicts, what each lease matched and holds, the
// counters, and the block accounting. Rejected attempts — which evict every
// unpinned block and re-stamp the matched path before failing — are part of
// the sequence, as are the engine's retries of a rejected prompt. Half the
// admissions take the pre-hashed entry point with a chain resumed from the
// previous prompt's, the way the engine calls it. Every case must see blocks
// whose children spilled into the edge map lose them all, be evicted and be
// recycled; the last fans out wide, filing at least minSpill edges at once.
func TestDifferentialAgainstReference(t *testing.T) {
	for _, tc := range []struct {
		seed     int64
		capacity int64
		prompt   func(*rand.Rand) []tokenizer.Token
		minSpill int
	}{{1, 12, randomPrompt, 1}, {2, 24, randomPrompt, 1}, {3, 48, randomPrompt, 1}, {4, 24, fanOutPrompt, 10}} {
		r := rand.New(rand.NewSource(tc.seed))
		cfg := Config{BlockSize: 4, CapacityBlocks: tc.capacity}
		got, want := New(cfg), newRef(cfg)
		type pair struct {
			got  *Lease
			want *refLease
		}
		var live []pair
		var prev, blocked []tokenizer.Token
		var prevHashes []uint64
		maxEdges, recycled := 0, 0
		spilled, evicted := map[*node]bool{}, map[*node]bool{} // blocks that had spilled children
		acquire := func(step int, p []tokenizer.Token) {
			reserve := r.Intn(8)
			var gl *Lease
			var gok bool
			if r.Intn(2) == 0 {
				gl, gok = got.Acquire(p, reserve)
			} else {
				prevHashes = BlockHashesAfter(nil, prev, prevHashes, p, cfg.BlockSize)
				prev = p
				gl = new(Lease)
				gok = got.AcquireHashed(gl, prevHashes, len(p), reserve)
			}
			wl, wok := want.Acquire(p, reserve)
			if gok != wok {
				t.Fatalf("seed %d step %d: admitted %v, reference %v", tc.seed, step, gok, wok)
			}
			if !gok {
				blocked = p
				return
			}
			if gl.Matched != wl.Matched || gl.Prompt != wl.Prompt || gl.SharedBlocks() != wl.SharedBlocks() {
				t.Fatalf("seed %d step %d: lease matched=%d prompt=%d shared=%d, reference %d/%d/%d", tc.seed, step,
					gl.Matched, gl.Prompt, gl.SharedBlocks(), wl.Matched, wl.Prompt, wl.SharedBlocks())
			}
			live = append(live, pair{gl, wl})
		}
		for step := 0; step < 12000; step++ {
			switch k := r.Intn(10); {
			case k < 3 && len(live) > 0:
				i := r.Intn(len(live))
				got.Release(live[i].got)
				want.Release(live[i].want)
				live = slices.Delete(live, i, i+1)
			case k == 3 && len(live) > 0:
				l, add := live[r.Intn(len(live))], int64(r.Intn(4))
				if g, w := got.Grow(l.got, add), want.Grow(l.want, add); g != w {
					t.Fatalf("seed %d step %d: grow %v, reference %v", tc.seed, step, g, w)
				}
			case k == 4:
				p := tc.prompt(r)
				if g, w := got.MatchLen(p), want.MatchLen(p); g != w {
					t.Fatalf("seed %d step %d: MatchLen %d, reference %d", tc.seed, step, g, w)
				}
			case k == 5 && blocked != nil:
				acquire(step, blocked)
			default:
				acquire(step, tc.prompt(r))
			}
			for _, l := range live {
				if l.got.PrivateBlocks() != l.want.PrivateBlocks() {
					t.Fatalf("seed %d step %d: private blocks %d, reference %d", tc.seed, step, l.got.PrivateBlocks(), l.want.PrivateBlocks())
				}
			}
			if got.Stats() != want.Stats() || got.UsedBlocks() != want.UsedBlocks() || got.TrieBlocks() != want.TrieBlocks() {
				t.Fatalf("seed %d step %d: stats %+v used %d trie %d, reference %+v %d %d", tc.seed, step,
					got.Stats(), got.UsedBlocks(), got.TrieBlocks(), want.Stats(), want.UsedBlocks(), want.TrieBlocks())
			}
			if err := got.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", tc.seed, step, err)
			}
			maxEdges = max(maxEdges, len(got.edges))
			for e := range got.edges {
				spilled[e.parent] = true
			}
			for n := range spilled {
				if n.dead {
					delete(spilled, n)
					evicted[n] = true
				}
			}
			for n := range evicted {
				if !n.dead {
					delete(evicted, n)
					recycled++
				}
			}
			// What recycling rests on: no entry is ahead of its node's stamp or
			// of the clock — and, stronger than it needs, none points at a
			// node waiting on the free list.
			for _, e := range got.evict {
				if e.n.dead || e.seq > e.n.lastUse || e.seq > got.clock {
					t.Fatalf("seed %d step %d: heap entry seq=%d for a node with dead=%v lastUse=%d at clock %d",
						tc.seed, step, e.seq, e.n.dead, e.n.lastUse, got.clock)
				}
			}
		}
		st := got.Stats()
		if st.Rejections < 100 || st.EvictedBlocks < 100 || st.MatchedTokens == 0 {
			t.Errorf("seed %d: run too easy to tell the two apart: %+v", tc.seed, st)
		}
		if maxEdges < tc.minSpill || recycled < 10 {
			t.Errorf("seed %d: at most %d edges filed at once, %d blocks recycled after their spilled children went; want >= %d and >= 10",
				tc.seed, maxEdges, recycled, tc.minSpill)
		}
	}
}

// TestBlockHashesAfterEqualsFromScratch: resuming from any predecessor gives
// the chain hashing from token 0 gives.
func TestBlockHashesAfterEqualsFromScratch(t *testing.T) {
	check := func(name string, prev, cur []tokenizer.Token, bs int) {
		t.Helper()
		want := refBlockHashes(cur, bs)
		if got := BlockHashesAfter(nil, prev, refBlockHashes(prev, bs), cur, bs); !slices.Equal(got, want) {
			t.Fatalf("%s: bs=%d prev=%v cur=%v\n got %x\nwant %x", name, bs, prev, cur, got, want)
		}
		// Appended to an arena right behind the predecessor's own chain, as
		// the engine lays out a run.
		arena := BlockHashesAfter(make([]uint64, 0, (len(prev)+len(cur))/bs), nil, nil, prev, bs)
		np := len(arena)
		arena = BlockHashesAfter(arena, prev, arena[:np], cur, bs)
		if !slices.Equal(arena[:np], refBlockHashes(prev, bs)) || !slices.Equal(arena[np:], want) {
			t.Fatalf("%s in an arena: bs=%d prev=%v cur=%v\n got %x\nwant %x", name, bs, prev, cur, arena[np:], want)
		}
	}
	long := seq(0, 19)
	check("no predecessor", nil, long, 4)
	check("nothing shared", seq(100, 19), long, 4)
	check("shared < blockSize", append(seq(0, 3), seq(100, 9)...), long, 4)
	check("shared = one block exactly", append(seq(0, 4), seq(100, 9)...), long, 4)
	check("shared = len(prev)", seq(0, 9), long, 4)
	check("shared = len(prev), mid-block", seq(0, 10), long, 4)
	check("cur shorter than prev", long, seq(0, 9), 4)
	check("cur shorter than a block", long, seq(0, 3), 4)
	check("identical", long, long, 4)
	check("empty cur", long, nil, 4)

	r := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		check("random", randomPrompt(r), randomPrompt(r), 1+r.Intn(6))
	}
}

// TestSpilledParentEvictedAndRecycled walks one block through the edge
// map's whole life against the reference: it gains eight children, seven of
// them spilled; pool pressure evicts all eight and then the block itself; its
// node is recycled as the first block of the next chain; and its old children
// match nothing afterwards while new ones spill under the recycled node.
func TestSpilledParentEvictedAndRecycled(t *testing.T) {
	cfg := Config{BlockSize: 4, CapacityBlocks: 9}
	got, want := New(cfg), newRef(cfg)
	branch := func(i int) []tokenizer.Token { return append(seq(0, 4), seq(1000*(i+1), 4)...) }
	step := func(what string, p []tokenizer.Token) {
		t.Helper()
		gl, gok := got.Acquire(p, 0)
		wl, wok := want.Acquire(p, 0)
		if gok != wok || gok && gl.Matched != wl.Matched {
			t.Fatalf("%s: admitted %v, reference %v", what, gok, wok)
		}
		if gok {
			got.Release(gl)
			want.Release(wl)
		}
		if got.Stats() != want.Stats() || got.UsedBlocks() != want.UsedBlocks() || got.TrieBlocks() != want.TrieBlocks() {
			t.Fatalf("%s: stats %+v used %d, reference %+v %d", what, got.Stats(), got.UsedBlocks(), want.Stats(), want.UsedBlocks())
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	for i := range 8 {
		step("branch", branch(i))
	}
	parent := got.root.only
	if parent.only == nil || parent.spilled != 7 || len(got.edges) != 7 {
		t.Fatalf("parent holds inline=%v spilled=%d with %d edges; want one inline child and seven spilled", parent.only != nil, parent.spilled, len(got.edges))
	}

	step("unrelated chain filling the pool", seq(50_000, 36))
	if got.Stats().EvictedBlocks != 9 || len(got.edges) != 0 {
		t.Fatalf("evicted %d blocks leaving %d edges; want the eight children and then their parent", got.Stats().EvictedBlocks, len(got.edges))
	}
	if got.root.only != parent || parent.dead || parent.hash != BlockHashes(seq(50_000, 4), 4)[0] {
		t.Fatal("the evicted parent's node was not recycled as the new chain's first block")
	}

	for i := range 8 {
		if got.MatchLen(branch(i)) != 0 {
			t.Fatalf("branch %d still matches after its parent was evicted", i)
		}
	}
	for i := range 3 {
		step("branch under the recycled node", append(seq(50_000, 4), seq(90_000+100*i, 4)...))
	}
	if got.root.only != parent || parent.spilled != 3 {
		t.Fatalf("recycled node holds %d spilled children, want all 3 beside its inline one", parent.spilled)
	}
}

// TestEvictHeapSiftsLikeContainerHeap: on keys drawn from a range small
// enough that most compare equal, every pop returns the entry container/heap
// returns — the cache itself never holds two equal keys at once, so only a
// direct comparison pins the tie order.
func TestEvictHeapSiftsLikeContainerHeap(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var got evictHeap
	var want refHeap
	nodes := map[*node]*refNode{}
	for step := 0; step < 20000; step++ {
		if len(got) == 0 || r.Intn(5) < 3 {
			n, rn, seq := &node{}, &refNode{}, int64(r.Intn(6))
			nodes[n] = rn
			got.push(evictEntry{n: n, seq: seq})
			heap.Push(&want, refEntry{n: rn, seq: seq})
			continue
		}
		g, w := got.pop(), heap.Pop(&want).(refEntry)
		if g.seq != w.seq || nodes[g.n] != w.n {
			t.Fatalf("step %d: popped a different entry than container/heap (seq %d vs %d)", step, g.seq, w.seq)
		}
	}
}

// TestRecycledNodeIgnoresStaleHeapEntry drives one node struct through
// evict → recycle → the pop of an entry left over from its previous life.
// The heap pops a node's stale entries before its valid one, so the leftover
// has to be planted; the point is that recycling does not depend on that.
// The recycled node is, by LRU, younger than block M: were the leftover
// honoured, the node would be evicted in M's place.
func TestRecycledNodeIgnoresStaleHeapEntry(t *testing.T) {
	c := New(Config{BlockSize: 4})
	m, n, x := seq(0, 4), seq(100, 4), seq(200, 4)

	lm, _ := c.Acquire(m, 0) // pinned for now
	ln, _ := c.Acquire(n, 0)
	old := ln.tail // a one-block lease: its tail is its only block
	c.Release(ln)
	c.evict.push(evictEntry{n: old, seq: old.lastUse}) // the leftover
	if !c.evictOne() || !old.dead || c.free != old {
		t.Fatal("block N was not evicted onto the free list")
	}
	c.Release(lm)

	lx, _ := c.Acquire(x, 0)
	if lx.tail != old {
		t.Fatal("the inserted block did not reuse the evicted node")
	}
	if old.dead || old.lastUse <= c.evict[0].seq {
		t.Fatalf("recycled node dead=%v lastUse=%d is not above the leftover's seq %d", old.dead, old.lastUse, c.evict[0].seq)
	}
	c.Release(lx)

	if !c.evictOne() { // pops the leftover first: lowest seq in the heap
		t.Fatal("nothing evicted")
	}
	if c.MatchLen(m) != 0 || c.MatchLen(x) != 4 {
		t.Fatalf("after one eviction M matches %d and X matches %d tokens; want the older M gone and the recycled node kept",
			c.MatchLen(m), c.MatchLen(x))
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestEvictionReusesNodes: a cache cycling distinct prompts through a full
// pool stops allocating nodes once the first slabs cover the pool.
func TestEvictionReusesNodes(t *testing.T) {
	c := New(Config{BlockSize: 4, CapacityBlocks: 32})
	for i := 0; i < 500; i++ {
		l, ok := c.Acquire(seq(i*1000, 32), 0)
		if !ok {
			t.Fatal("rejected")
		}
		c.Release(l)
	}
	if c.Stats().InsertedBlocks != 4000 {
		t.Fatalf("inserted %d blocks, want 4000", c.Stats().InsertedBlocks)
	}
	if c.slabbed > 64 {
		t.Errorf("%d nodes allocated for a 32-block pool", c.slabbed)
	}
}

func TestAcquireAllocations(t *testing.T) {
	c := New(Config{BlockSize: 4, CapacityBlocks: 16})
	held, _ := c.Acquire(seq(0, 40), 0) // 10 blocks pinned
	warm, _ := c.Acquire(seq(100, 16), 0)
	c.Release(warm)

	// Shares two pinned blocks, needs 8 more of the 6 that can be had: the
	// attempt pins, evicts the warm chain, unpins and fails.
	big := BlockHashes(append(seq(0, 8), seq(200, 32)...), 4)
	var l Lease
	if n := testing.AllocsPerRun(100, func() {
		if c.AcquireHashed(&l, big, 40, 0) {
			t.Fatal("admitted")
		}
	}); n != 0 {
		t.Errorf("a rejected attempt allocates %v times, want 0", n)
	}

	hit := BlockHashes(seq(0, 40), 4)
	if n := testing.AllocsPerRun(100, func() {
		if !c.AcquireHashed(&l, hit, 40, 0) || l.Matched != 40 {
			t.Fatal("not a full hit")
		}
		c.Release(&l)
	}); n != 0 {
		t.Errorf("a fully matched admission allocates %v times, want 0", n)
	}
	c.Release(held)
}

// TestAdmissionFromFreeListAllocatesNothing: on a warmed cache, admitting a
// prompt whose blocks must be inserted and releasing it allocates nothing.
// Block P's inline child is pinned, so the two branches taking turns in the
// rest of the pool each evict the other's chain onto the free list, then
// take every block they insert from it, their first filed in the edge map.
func TestAdmissionFromFreeListAllocatesNothing(t *testing.T) {
	c := New(Config{BlockSize: 4, CapacityBlocks: 8})
	held, _ := c.Acquire(append(seq(0, 4), seq(100, 4)...), 0) // P A1
	chains := [2][]uint64{
		BlockHashes(append(seq(0, 4), seq(200, 24)...), 4), // P B1..B6
		BlockHashes(append(seq(0, 4), seq(300, 24)...), 4), // P C1..C6
	}
	var l Lease
	i := 0
	admit := func() {
		if !c.AcquireHashed(&l, chains[i%2], 28, 0) || l.Matched != 4 {
			t.Fatalf("admission %d: want a 4-token hit", i)
		}
		c.Release(&l)
		i++
	}
	for range 4 {
		admit()
	}
	if len(c.edges) != 1 {
		t.Fatalf("warm-up left %d edges, want the turn-taking branch's one", len(c.edges))
	}
	slabbed := c.slabbed
	if n := testing.AllocsPerRun(100, admit); n != 0 {
		t.Errorf("admission that inserts from the free list allocates %v times, want 0", n)
	}
	if c.slabbed != slabbed {
		t.Errorf("%d nodes came from slabs, want every insert from the free list", c.slabbed-slabbed)
	}
	if got := c.Stats().EvictedBlocks; got < 600 {
		t.Errorf("evicted %d blocks; the branches did not take turns", got)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	c.Release(held)
}
