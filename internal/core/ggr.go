package core

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/table"
)

// GGROptions configures Greedy Group Recursion (Sec. 4.2).
type GGROptions struct {
	// LenOf measures cell values; defaults to table.CharLen.
	LenOf table.LenFunc
	// UseFDs enables functional-dependency inference (Sec. 4.2.1). When a
	// group value is selected in field c, every field in c's FD equivalence
	// class is pulled into the prefix alongside c and removed from the
	// recursion.
	UseFDs bool
	// MaxRowDepth bounds the row-wise recursion (splitting off a group's
	// complement); MaxColDepth bounds the column-wise recursion (descending
	// into a group with the matched columns removed). Depth 0 disables the
	// bound. The paper's evaluation uses row depth 4 and column depth 2
	// (Sec. 6.5).
	MaxRowDepth int
	MaxColDepth int
	// MinHitCount stops recursion when the best group's HITCOUNT falls below
	// this threshold (the paper's 0.1M early-stopping threshold). Recursion
	// always stops when no group has a positive hit count.
	MinHitCount int64
	// Stats, when non-nil, replaces per-subtable statistics scans in the
	// fallback ordering with precomputed whole-table statistics, mirroring
	// how a database would use catalog stats instead of rescanning.
	Stats *table.Stats
}

// DefaultGGROptions returns the configuration used in the paper's end-to-end
// evaluation (Sec. 6.5): row depth 4, column depth 2, 0.1M hit-count
// threshold, FDs on.
func DefaultGGROptions(lenOf table.LenFunc) GGROptions {
	return GGROptions{
		LenOf:       lenOf,
		UseFDs:      true,
		MaxRowDepth: 4,
		MaxColDepth: 2,
		MinHitCount: 100_000,
	}
}

// ExhaustiveGGROptions disables early stopping so the greedy recursion runs
// to the base cases. Used for small tables and for comparing against OPHR.
func ExhaustiveGGROptions(lenOf table.LenFunc) GGROptions {
	return GGROptions{LenOf: lenOf, UseFDs: true}
}

// Result is the output of a reordering solver.
type Result struct {
	// Schedule is the reordered list of tuples.
	Schedule *Schedule
	// Estimate is the solver's own PHC accounting (S in Algorithm 1). For
	// GGR with exact FDs this equals PHC; with approximate FDs it may
	// overestimate.
	Estimate int64
	// PHC is the exact prefix hit count of Schedule under Eq. 1–2.
	PHC int64
}

// GGR runs Greedy Group Recursion (Algorithm 1) over t and returns the
// reordered schedule. Functional dependencies are taken from t.FDs().
//
// Two places deviate deliberately from the paper's pseudocode, both
// documented here because Algorithm 1 as printed contains evident typos:
//
//  1. Line 29 prefixes the selected value onto L_A (the complement's rows)
//     while indexing over |R_v|; the intent, per Fig. 2 and the surrounding
//     prose, is to prefix the matched group's cells onto L_B (the group's
//     rows, which had those columns removed) and then append the complement.
//  2. Line 6 sums plain lengths of FD-inferred columns while the objective
//     (Eq. 2) is quadratic; we square the inferred lengths so the greedy
//     score estimates actual PHC contribution. With exact FDs the group's
//     inferred values are constant and the estimate is exact.
func GGR(t *table.Table, opt GGROptions) *Result {
	if opt.LenOf == nil {
		opt.LenOf = table.CharLen
	}
	s := &ggrSolver{t: t, opt: opt}
	s.encode()
	n, m := t.NumRows(), t.NumCols()
	rows, cols := make([]int32, n), make([]int32, m)
	for i := range rows {
		rows[i] = int32(i)
	}
	for j := range cols {
		cols[j] = int32(j)
	}
	est := s.rec(rows, cols, nil, 0, 0)
	best, phc := s.blocks, s.phc(s.blocks)

	// Safeguard: the recursion's greedy splits can occasionally lose to the
	// plain statistics ordering (value groups chosen early may scatter
	// correlations the fixed order would have kept together). The fallback is
	// one cheap extra pass, so never return a schedule worse than it.
	if n > 1 && m > 1 {
		s.blocks = nil
		if fb := s.fallback(rows, cols, nil); fb > phc {
			best, est, phc = s.blocks, fb, fb
		}
	}
	return &Result{Schedule: s.schedule(best), Estimate: est, PHC: phc}
}

// ggrSolver holds one solve's state. The table is dictionary-encoded once
// (encode) and the recursion, both fallback orderings, the row sorts and the
// PHC accounting then work on int32 value ids instead of cell strings; the
// schedule's cells are materialized once, at the end, for the winning
// candidate only. Everything here lives for one solve and is confined to it.
type ggrSolver struct {
	t   *table.Table
	opt GGROptions

	codes    [][]int32 // [col][row]: the cell's value id within its column
	sq       [][]int64 // [col][id]: squared length of the value
	first    [][]int32 // [col][id]: first row holding the value
	ranks    [][]int32 // [col][id]: rank in string order; built by sortRows on demand
	inferred [][]int32 // [col]: columns FD-inferred from col, in FDSet order

	// blocks is the schedule under construction, in order.
	blocks []block

	// Id-indexed scratch for per-value aggregation. An entry is live when its
	// stamp equals the current epoch, so starting a scan is O(1).
	epoch   uint32
	stamp   []uint32
	count   []int64 // bestGroup: rows holding the value
	infSq   []int64 // bestGroup: Σ squared lengths of the inferred cells
	slot    []int32 // refine: rows holding the value, then its output offset
	touched []int32 // ids of the current scan, in first-appearance order

	// chainOrder's prefix-tuple partition: perm lists the rows of every group
	// of two or more, group i being perm[bounds[i]:bounds[i+1]]; the spare
	// pair is what refine writes the next partition into.
	perm, permSpare     []int32
	bounds, boundsSpare []int32
}

// block is a run of scheduled rows sharing one field order (base column
// indices): a leaf of the recursion with its prefix columns in front.
type block struct {
	rows  []int32
	order []int32
}

// encode builds the per-column dictionaries. Ids are assigned in
// first-appearance order, so a lower id always first occurs on an earlier
// row. LenOf runs once per distinct value of a column.
func (g *ggrSolver) encode() {
	n, m := g.t.NumRows(), g.t.NumCols()
	g.codes = make([][]int32, m)
	g.sq = make([][]int64, m)
	g.first = make([][]int32, m)
	g.ranks = make([][]int32, m)
	g.inferred = make([][]int32, m)
	flat := make([]int32, n*m)
	ids := make(map[string]int32)
	maxIDs := 0
	for c := 0; c < m; c++ {
		clear(ids)
		col := flat[c*n : (c+1)*n : (c+1)*n]
		for r := 0; r < n; r++ {
			v := g.t.Cell(r, c)
			id, ok := ids[v]
			if !ok {
				id = int32(len(ids))
				ids[v] = id
				l := int64(g.opt.LenOf(v))
				g.sq[c] = append(g.sq[c], l*l)
				g.first[c] = append(g.first[c], int32(r))
			}
			col[r] = id
		}
		g.codes[c] = col
		maxIDs = max(maxIDs, len(ids))
		if g.opt.UseFDs {
			for _, name := range g.t.FDs().Inferred(g.t.Columns()[c]) {
				if j, ok := g.t.ColIndex(name); ok {
					g.inferred[c] = append(g.inferred[c], int32(j))
				}
			}
		}
	}
	g.stamp = make([]uint32, maxIDs)
	g.count = make([]int64, maxIDs)
	g.infSq = make([]int64, maxIDs)
	g.slot = make([]int32, maxIDs)
}

// nextEpoch invalidates every scratch entry.
func (g *ggrSolver) nextEpoch() uint32 {
	if g.epoch == math.MaxUint32 {
		clear(g.stamp)
		g.epoch = 0
	}
	g.epoch++
	return g.epoch
}

// rec is the recursive case of Algorithm 1 over the sub-table rows × cols
// (base indices, ascending), appending its schedule to g.blocks with prefix
// — the columns matched further up the stack — leading every row, and
// returning its PHC estimate. rowDepth counts row-wise splits (the
// complement branch), colDepth counts column-wise splits (the group branch).
func (g *ggrSolver) rec(rows, cols, prefix []int32, rowDepth, colDepth int) int64 {
	switch {
	case len(rows) == 0:
		return 0
	case len(cols) == 0 || len(rows) == 1:
		// Nothing to order: the columns were all consumed by prefixes up the
		// stack (which accounted their hits), or the row is alone.
		g.emit(rows, prefix, cols)
		return 0
	case len(cols) == 1 || g.stopped(rowDepth, colDepth):
		return g.fallback(rows, cols, prefix)
	}

	best := g.bestGroup(rows, cols)
	if best.hc <= 0 || best.hc < g.opt.MinHitCount {
		return g.fallback(rows, cols, prefix)
	}

	// Split rows into the matched group R_v and its complement.
	codes := g.codes[best.cols[0]]
	split := make([]int32, len(rows))
	group, rest := split[:0:best.count], split[best.count:best.count]
	for _, r := range rows {
		if codes[r] == best.id {
			group = append(group, r)
		} else {
			rest = append(rest, r)
		}
	}
	// Column set for the group branch: active columns minus the matched
	// column and its FD-inferred columns, which lead the group's rows (the
	// chosen column first, then the inferred ones) ahead of what the branch
	// orders; the complement's schedule follows.
	groupCols := make([]int32, 0, len(cols)-len(best.cols))
	for _, c := range cols {
		if !slices.Contains(best.cols, c) {
			groupCols = append(groupCols, c)
		}
	}
	grpS := g.rec(group, groupCols, slices.Concat(prefix, best.cols), rowDepth, colDepth+1)
	restS := g.rec(rest, cols, prefix, rowDepth+1, colDepth)
	return restS + grpS + best.hc
}

// emit appends one block: rows in the given order, each serialized as the
// prefix columns followed by order.
func (g *ggrSolver) emit(rows, prefix, order []int32) {
	g.blocks = append(g.blocks, block{rows: rows, order: slices.Concat(prefix, order)})
}

// stopped reports whether early stopping applies at this depth.
func (g *ggrSolver) stopped(rowDepth, colDepth int) bool {
	if g.opt.MaxRowDepth > 0 && rowDepth >= g.opt.MaxRowDepth {
		return true
	}
	if g.opt.MaxColDepth > 0 && colDepth >= g.opt.MaxColDepth {
		return true
	}
	return false
}

// groupChoice is the (column, value) group a recursion step splits on.
type groupChoice struct {
	hc    int64   // HITCOUNT of the group; -1 when there is no candidate
	cols  []int32 // the chosen column, then its FD-inferred active columns
	id    int32   // the value's id in cols[0]
	count int     // rows in the group
}

// bestGroup implements HITCOUNT (Algorithm 1 lines 3–8) for every distinct
// value of every active column and returns the maximum. Ties keep the first
// candidate in (column, first appearance within rows) order.
func (g *ggrSolver) bestGroup(rows, cols []int32) groupChoice {
	best := groupChoice{hc: -1}
	var bestCol int32
	for _, c := range cols {
		inferred := g.activeInferred(c, cols)
		codes, sq := g.codes[c], g.sq[c]
		epoch := g.nextEpoch()
		g.touched = g.touched[:0]
		for _, r := range rows {
			id := codes[r]
			if g.stamp[id] != epoch {
				g.stamp[id], g.count[id], g.infSq[id] = epoch, 0, 0
				g.touched = append(g.touched, id)
			}
			g.count[id]++
			for _, ic := range inferred {
				g.infSq[id] += g.sq[ic][g.codes[ic][r]]
			}
		}
		for _, id := range g.touched {
			n := g.count[id]
			// Own squared length plus the group's average inferred
			// contribution, once per row after the group's first.
			hc := (sq[id] + g.infSq[id]/n) * (n - 1)
			if hc > best.hc {
				best.hc, best.id, best.count, bestCol = hc, id, int(n), c
			}
		}
	}
	best.cols = append([]int32{bestCol}, g.activeInferred(bestCol, cols)...)
	return best
}

// activeInferred returns the columns FD-inferred from c that are still in
// cols.
func (g *ggrSolver) activeInferred(c int32, cols []int32) []int32 {
	var out []int32
	for _, ic := range g.inferred[c] {
		if slices.Contains(cols, ic) {
			out = append(out, ic)
		}
	}
	return out
}

// fallback is the table-statistics path (Sec. 4.2.2) and the one-field base
// case: choose a fixed field order for the sub-table, sort rows
// lexicographically under it, and report the exact PHC of the resulting
// block.
//
// When catalog statistics are supplied (opt.Stats) the paper's score
// ordering (avg(len)² weighted by repetition) is used without scanning.
// Otherwise the solver runs a chain-aware greedy: because a prefix hit
// requires ALL earlier fields to match (Eq. 2), field f's value is only
// reachable with the probability that the sorted prefix tuple still matches,
// so each position is filled by the field maximizing
//
//	avg(len²) × survival,  survival = 1 − (distinct prefix∘f tuples)/rows.
//
// This keeps entity-correlated fields together ahead of per-row noise (the
// failure mode of the static score on wide tables like PDMX) at O(m·k·n)
// for the k ≲ m positions until the chain dies.
func (g *ggrSolver) fallback(rows, cols, prefix []int32) int64 {
	order := cols
	switch {
	case len(cols) == 1: // a lone field is its own order
	case g.opt.Stats != nil:
		order = g.scoreOrder(cols)
	default:
		order = g.chainOrder(rows, cols)
	}
	sorted := slices.Clone(rows)
	g.sortRows(sorted, order)
	g.emit(sorted, prefix, order)
	return g.phc([]block{{rows: sorted, order: order}})
}

// scoreOrder ranks cols by the catalog-statistics score.
func (g *ggrSolver) scoreOrder(cols []int32) []int32 {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = g.t.Columns()[c]
	}
	order := make([]int32, len(cols))
	for i, name := range g.opt.Stats.OrderByScore(names) {
		j, _ := g.t.ColIndex(name) // a permutation of names
		order[i] = int32(j)
	}
	return order
}

// chainOrder computes the chain-aware greedy field order over rows (two or
// more). Once the expected chain survival drops below deadChain the
// remaining fields are unreachable, so they are appended by descending
// average squared length (longest values first, harmless either way).
//
// The rows are kept partitioned by their prefix tuple under the fields
// chosen so far. A row alone in its group stays alone whatever field comes
// next, so only groups of two or more are carried (perm/bounds) and the
// lone rows are just counted.
func (g *ggrSolver) chainOrder(rows, cols []int32) []int32 {
	const deadChain = 0.02
	n := len(rows)
	// Mean squared length per candidate column.
	avgSq := make([]float64, len(cols))
	for p, c := range cols {
		codes, sq := g.codes[c], g.sq[c]
		var sum float64
		for _, r := range rows {
			sum += float64(sq[codes[r]])
		}
		avgSq[p] = sum / float64(n)
	}

	g.perm = append(g.perm[:0], rows...)
	g.bounds = append(g.bounds[:0], 0, int32(n))
	lone := 0 // rows alone in their group
	remaining := make([]int, len(cols))
	for i := range remaining {
		remaining[i] = i
	}
	order := make([]int32, 0, len(cols))
	for len(remaining) > 0 {
		groups := lone + len(g.bounds) - 1
		alive := float64(n - groups) // rows still matching their predecessor
		if alive/float64(n) < deadChain {
			break // chain effectively dead: order the tail statically
		}
		bestIdx, bestGain := -1, -1.0
		for idx, p := range remaining {
			pairs := lone + g.distinctPairs(g.codes[cols[p]])
			// Conditional survival: of the pairs still alive, the fraction
			// this field would not break. The odds weighting implements the
			// pairwise-exchange optimality criterion (put f before g iff
			// sq_f·s_f·(1−s_g) > sq_g·s_g·(1−s_f)): fields that would kill
			// the chain sink below any field that keeps it alive, no matter
			// how long their values are.
			s := float64(n-pairs) / alive
			if s < 0 {
				s = 0
			}
			gain := avgSq[p] * s / (1 - s + 1/float64(n))
			if gain > bestGain {
				bestGain, bestIdx = gain, idx
			}
		}
		if bestIdx < 0 || bestGain <= 0 {
			break
		}
		c := cols[remaining[bestIdx]]
		lone += g.refine(g.codes[c])
		order = append(order, c)
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	// Tail: statically by descending avg squared length, ties by position.
	sort.SliceStable(remaining, func(a, b int) bool {
		return avgSq[remaining[a]] > avgSq[remaining[b]]
	})
	for _, p := range remaining {
		order = append(order, cols[p])
	}
	return order
}

// distinctPairs counts the distinct (group, value) pairs over the carried
// groups for a column's codes: the groups its field would refine them into.
func (g *ggrSolver) distinctPairs(codes []int32) int {
	pairs := 0
	for i := 0; i+1 < len(g.bounds); i++ {
		epoch := g.nextEpoch()
		for _, r := range g.perm[g.bounds[i]:g.bounds[i+1]] {
			if id := codes[r]; g.stamp[id] != epoch {
				g.stamp[id] = epoch
				pairs++
			}
		}
	}
	return pairs
}

// refine splits every carried group by its rows' codes, keeping row order
// within a group, drops the groups that become single rows, and returns how
// many it dropped.
func (g *ggrSolver) refine(codes []int32) (dropped int) {
	next := slices.Grow(g.permSpare[:0], len(g.perm))
	nextBounds := append(g.boundsSpare[:0], 0)
	for i := 0; i+1 < len(g.bounds); i++ {
		group := g.perm[g.bounds[i]:g.bounds[i+1]]
		epoch := g.nextEpoch()
		g.touched = g.touched[:0]
		for _, r := range group {
			id := codes[r]
			if g.stamp[id] != epoch {
				g.stamp[id], g.slot[id] = epoch, 0
				g.touched = append(g.touched, id)
			}
			g.slot[id]++
		}
		for _, id := range g.touched {
			size := int(g.slot[id])
			if size == 1 {
				g.slot[id] = -1
				dropped++
				continue
			}
			g.slot[id] = int32(len(next))
			next = next[:len(next)+size]
			nextBounds = append(nextBounds, int32(len(next)))
		}
		for _, r := range group {
			if at := g.slot[codes[r]]; at >= 0 {
				next[at] = r
				g.slot[codes[r]] = at + 1
			}
		}
	}
	g.perm, g.permSpare = next, g.perm
	g.bounds, g.boundsSpare = nextBounds, g.bounds
	return dropped
}

// sortRows sorts base row indices lexicographically by the given columns'
// values, stably — comparing each value's rank in its column's string
// order, which is built the first time a comparison reaches the column.
func (g *ggrSolver) sortRows(rows, cols []int32) {
	slices.SortStableFunc(rows, func(a, b int32) int {
		for _, c := range cols {
			if ia, ib := g.codes[c][a], g.codes[c][b]; ia != ib {
				ranks := g.ranks[c]
				if ranks == nil {
					ranks = g.rankColumn(c)
				}
				return cmp.Compare(ranks[ia], ranks[ib])
			}
		}
		return 0
	})
}

// rankColumn ranks a column's distinct values in string order.
func (g *ggrSolver) rankColumn(c int32) []int32 {
	first := g.first[c]
	ids := make([]int32, len(first))
	for i := range ids {
		ids[i] = int32(i)
	}
	slices.SortFunc(ids, func(a, b int32) int {
		return strings.Compare(g.t.Cell(int(first[a]), int(c)), g.t.Cell(int(first[b]), int(c)))
	})
	ranks := make([]int32, len(ids))
	for rank, id := range ids {
		ranks[id] = int32(rank)
	}
	g.ranks[c] = ranks
	return ranks
}

// phc computes the exact PHC (Eq. 1–2) of a block list: two cells match when
// they sit in the same column and carry the same value id.
func (g *ggrSolver) phc(blocks []block) int64 {
	var total int64
	prev, prevOrder := int32(-1), []int32(nil)
	for _, b := range blocks {
		for _, r := range b.rows {
			for f := 0; prev >= 0 && f < len(b.order) && f < len(prevOrder); f++ {
				c := b.order[f]
				id := g.codes[c][r]
				if prevOrder[f] != c || g.codes[c][prev] != id {
					break
				}
				total += g.sq[c][id]
			}
			prev, prevOrder = r, b.order
		}
	}
	return total
}

// schedule materializes a block list as the exported Schedule.
func (g *ggrSolver) schedule(blocks []block) *Schedule {
	names := g.t.Columns()
	cells := make([]Cell, g.t.NumRows()*len(names))
	s := &Schedule{Rows: make([]Row, 0, g.t.NumRows())}
	for _, b := range blocks {
		for _, r := range b.rows {
			src := g.t.Row(int(r))
			row := cells[:len(b.order):len(b.order)]
			cells = cells[len(b.order):]
			for k, c := range b.order {
				row[k] = Cell{Field: names[c], Value: src[c]}
			}
			s.Rows = append(s.Rows, Row{Source: int(r), Cells: row})
		}
	}
	return s
}
