package core

import (
	"slices"
	"sort"
)

// This file holds the two halves of prefix-coherent partitioning that
// internal/backend's SplitByGroups composes: where one reordered schedule
// may be cut into shards for independent engine replicas (data-parallel
// serving) with almost no prefix-cache loss, and how to balance the pieces.
//
// The key observation is structural: a GGR (or fixed-order) schedule is a
// sequence of top-level prefix-sharing groups — maximal runs of rows whose
// leading cell matches the previous row's. Rows in DIFFERENT groups share no
// leading cell, so the adjacent-row prefix hit across a group boundary is
// exactly zero (a prefix run dies on its first mismatched cell; see PHC).
// Cutting the schedule only at group boundaries therefore preserves every
// intra-shard prefix hit: each shard is itself a valid prefix-coherent
// schedule, and the only reuse forfeited is whatever the serving engine
// would have carried across the cut — which the schedule itself promised
// nothing about.

// GroupStarts returns the start indices of the schedule's top-level
// prefix-sharing groups, in ascending order and always beginning with 0 for
// a non-empty schedule. A new group starts at row r when row r's first cell
// (field and value) differs from row r-1's — the positions where the
// adjacent-row prefix hit is exactly zero, i.e. the free cut points.
func GroupStarts(s *Schedule) []int {
	if s == nil || len(s.Rows) == 0 {
		return nil
	}
	starts := []int{0}
	for r := 1; r < len(s.Rows); r++ {
		prev, cur := s.Rows[r-1].Cells, s.Rows[r].Cells
		if len(prev) == 0 || len(cur) == 0 || prev[0] != cur[0] {
			starts = append(starts, r)
		}
	}
	return starts
}

// PackGroups assigns item weights to at most bins bins with the
// longest-processing-time greedy: items sorted by descending weight, each
// placed on the currently lightest bin (ties: lower index). It returns the
// item indices of each bin, every bin non-empty, indices ascending within a
// bin. The greedy guarantees max bin weight <= total/bins + max item weight.
// Used by request partitioning in internal/backend's Sharded decorator.
func PackGroups(weights []int64, bins int) [][]int {
	n := len(weights)
	if n == 0 || bins < 1 {
		return nil
	}
	if bins > n {
		bins = n
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })

	loads := make([]int64, bins)
	out := make([][]int, bins)
	for _, item := range order {
		best := 0
		for b := 1; b < bins; b++ {
			if loads[b] < loads[best] {
				best = b
			}
		}
		loads[best] += weights[item]
		out[best] = append(out[best], item)
	}
	// Positive weights fill every bin; zero or negative ones can leave bins
	// unused, and those are dropped rather than returned empty.
	out = slices.DeleteFunc(out, func(bin []int) bool { return len(bin) == 0 })
	for _, bin := range out {
		sort.Ints(bin)
	}
	return out
}
