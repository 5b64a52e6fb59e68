package core

import (
	"reflect"
	"testing"
)

// TestGroupStartsBoundaries pins the boundary definition on a hand-built
// schedule: a new group exactly where the first cell changes.
func TestGroupStartsBoundaries(t *testing.T) {
	s := &Schedule{Rows: []Row{
		{Source: 0, Cells: []Cell{{Field: "a", Value: "x"}, {Field: "b", Value: "1"}}},
		{Source: 1, Cells: []Cell{{Field: "a", Value: "x"}, {Field: "b", Value: "2"}}},
		{Source: 2, Cells: []Cell{{Field: "a", Value: "y"}, {Field: "b", Value: "2"}}},
		{Source: 3, Cells: []Cell{{Field: "b", Value: "2"}, {Field: "a", Value: "y"}}}, // field flip: new group
		{Source: 4, Cells: []Cell{{Field: "b", Value: "2"}, {Field: "a", Value: "z"}}},
	}}
	got := GroupStarts(s)
	want := []int{0, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("GroupStarts = %v, want %v", got, want)
	}
	if starts := GroupStarts(&Schedule{}); starts != nil {
		t.Fatalf("empty schedule: GroupStarts = %v, want nil", starts)
	}
}

// TestPackGroups pins the packing: bins non-empty, ascending indices, every
// item placed once, deterministic.
func TestPackGroups(t *testing.T) {
	weights := []int64{50, 10, 30, 30, 5, 40}
	bins := PackGroups(weights, 3)
	if len(bins) != 3 {
		t.Fatalf("got %d bins, want 3", len(bins))
	}
	placed := map[int]bool{}
	for _, bin := range bins {
		if len(bin) == 0 {
			t.Fatal("empty bin")
		}
		for i, item := range bin {
			if i > 0 && item <= bin[i-1] {
				t.Fatalf("bin %v not ascending", bin)
			}
			if placed[item] {
				t.Fatalf("item %d placed twice", item)
			}
			placed[item] = true
		}
	}
	if len(placed) != len(weights) {
		t.Fatalf("placed %d items, want %d", len(placed), len(weights))
	}
	if !reflect.DeepEqual(bins, PackGroups(weights, 3)) {
		t.Fatal("PackGroups not deterministic")
	}
	if got := PackGroups(weights, 100); len(got) != len(weights) {
		t.Fatalf("bins capped at item count: got %d, want %d", len(got), len(weights))
	}
	if PackGroups(nil, 4) != nil {
		t.Fatal("no items must give no bins")
	}
	// Weightless items never make a bin look heavier than an unused one, so
	// they all land on bin 0: the unused bins are dropped, not returned empty.
	if got := PackGroups([]int64{0, 0, 0}, 2); !reflect.DeepEqual(got, [][]int{{0, 1, 2}}) {
		t.Fatalf("weightless items packed as %v, want one bin holding all three", got)
	}
}
