package main

import (
	"testing"
	"time"
)

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	// root [0,100]
	//   a [10,40]   b [30,60] overlaps a   c [70,80]
	//     a1 [15,25] nested in a
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 70, End: 80},
		{ID: 5, Parent: 2, Name: "a1", Start: 15, End: 25},
	}
	self := selfTimes(spans)
	// Children cover [10,60] ∪ [70,80] = 60, counted once where a and b
	// overlap; the grandchild does not subtract from root.
	if got := self[1]; got != 40 {
		t.Errorf("root self = %d, want 40", got)
	}
	if got := self[2]; got != 20 {
		t.Errorf("a self = %d, want 20 (30 minus nested child 10)", got)
	}
	for _, id := range []int64{3, 4, 5} {
		if got, want := self[id], spans[id-1].dur(); got != want {
			t.Errorf("leaf %d self = %d, want its duration %d", id, got, want)
		}
	}
}

func TestSelfTimeClipsChildOutlivingParent(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 100, End: 200},
		{ID: 2, Parent: 1, Name: "early", Start: 50, End: 120},
		{ID: 3, Parent: 1, Name: "late", Start: 180, End: 400},
		{ID: 4, Parent: 1, Name: "outside", Start: 300, End: 350},
	}
	if got := selfTimes(spans)[1]; got != 60 {
		t.Errorf("parent self = %d, want 60: only [100,120] and [180,200] overlap it", got)
	}
}

func TestUnionWithin(t *testing.T) {
	cases := []struct {
		iv     [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[][2]int64{{0, 10}}, 0, 10, 10},
		{[][2]int64{{2, 4}, {3, 5}, {3, 4}}, 0, 10, 3},
		{[][2]int64{{8, 20}, {-5, 1}}, 0, 10, 3},
		{[][2]int64{{5, 5}}, 0, 10, 0},
	}
	for _, c := range cases {
		if got := unionWithin(c.iv, c.lo, c.hi); got != c.want {
			t.Errorf("unionWithin(%v, %d, %d) = %d, want %d", c.iv, c.lo, c.hi, got, c.want)
		}
	}
}

func TestRecorderNilIsInert(t *testing.T) {
	var r *recorder
	id := r.begin("x", 0, 1)
	r.end(id)
	if id != 0 || r.add("y", 0, 1, time.Now(), time.Second) != 0 || r.snapshot() != nil {
		t.Fatal("nil recorder recorded something")
	}
}

func TestRecorderDropsOpenSpansAndKeepsParents(t *testing.T) {
	r := newRecorder()
	root := r.begin("op", 0, 7)
	child := r.begin("child", root, 7)
	r.begin("never-closed", root, 7)
	r.end(child)
	r.end(root)
	got := r.snapshot()
	if len(got) != 2 {
		t.Fatalf("snapshot has %d spans, want the 2 closed ones", len(got))
	}
	if got[1].Parent != root || got[1].Op != 7 || got[1].Name != "child" {
		t.Errorf("child span = %+v", got[1])
	}
	if got[0].dur() < got[1].dur() {
		t.Errorf("parent (%d ns) shorter than its child (%d ns)", got[0].dur(), got[1].dur())
	}
}

func TestReparentHangsProgramTraceUnderHandler(t *testing.T) {
	spans := reparent([]span{
		{ID: 1, Name: "loadgen.op", Op: 3, Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "server.handle", Op: 3, Start: 1, End: 9},
		{ID: 3, Parent: 1, Name: "prog.statement", Op: 3, Start: 2, End: 8},
		{ID: 4, Parent: 1, Name: "prog.statement", Op: 4, Start: 2, End: 8},
	})
	if spans[2].Parent != 2 {
		t.Errorf("statement of op 3 parented on %d, want the handler span 2", spans[2].Parent)
	}
	if spans[3].Parent != 1 {
		t.Errorf("statement of op 4 (no handler span) re-parented to %d", spans[3].Parent)
	}
}
