package table

import (
	"fmt"
	"sort"
)

// FDSet models the bidirectional functional dependencies (X ↔ Y, Sec. 4.2.1)
// the paper exploits: if two fields functionally determine each other, fixing
// one fixes the other, so the GGR solver places the whole group of mutually
// dependent fields together in the prefix and removes them from further
// consideration.
//
// Because the paper's dependencies are bidirectional, an FDSet is a partition
// of a subset of the columns into equivalence classes ("groups").
type FDSet struct {
	group map[string]int // column -> group id
	cols  [][]string     // group id -> member columns, in insertion order
}

// NewFDSet returns an empty dependency set.
func NewFDSet() *FDSet {
	return &FDSet{group: make(map[string]int)}
}

// AddGroup declares that all the given columns mutually determine each
// other. Columns already in a group are merged with the new one (transitive
// closure). Duplicates within the call are ignored.
func (f *FDSet) AddGroup(cols ...string) {
	if len(cols) == 0 {
		return
	}
	// Collect pre-existing groups to merge.
	target := -1
	for _, c := range cols {
		if g, ok := f.group[c]; ok {
			if target == -1 {
				target = g
			} else if g != target {
				f.merge(target, g)
			}
		}
	}
	if target == -1 {
		target = len(f.cols)
		f.cols = append(f.cols, nil)
	}
	for _, c := range cols {
		if g, ok := f.group[c]; ok && g == target {
			continue
		}
		f.group[c] = target
		f.cols[target] = append(f.cols[target], c)
	}
}

// merge folds group b into group a.
func (f *FDSet) merge(a, b int) {
	for _, c := range f.cols[b] {
		f.group[c] = a
		f.cols[a] = append(f.cols[a], c)
	}
	f.cols[b] = nil
}

// Inferred returns the columns functionally determined by col, excluding col
// itself (Algorithm 1 line 5). Returns nil when col is in no group.
func (f *FDSet) Inferred(col string) []string {
	g, ok := f.group[col]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(f.cols[g])-1)
	for _, c := range f.cols[g] {
		if c != col {
			out = append(out, c)
		}
	}
	return out
}

// Group returns the whole equivalence class of col (including col), or
// {col} when it is in no group.
//
//llmqlint:api llmq.FDSet; the core and query tests read a column's group
func (f *FDSet) Group(col string) []string {
	g, ok := f.group[col]
	if !ok {
		return []string{col}
	}
	return append([]string(nil), f.cols[g]...)
}

// Fields returns every column mentioned by the dependency set, sorted for
// deterministic iteration.
func (f *FDSet) Fields() []string {
	out := make([]string, 0, len(f.group))
	for c := range f.group {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Groups returns the non-empty equivalence classes, each sorted, with the
// classes ordered by their smallest member for determinism.
func (f *FDSet) Groups() [][]string {
	var out [][]string
	for _, g := range f.cols {
		if len(g) < 2 {
			continue
		}
		gg := append([]string(nil), g...)
		sort.Strings(gg)
		out = append(out, gg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// Restrict returns a new FDSet keeping only dependencies among the given
// columns. Groups that shrink below two members disappear.
func (f *FDSet) Restrict(cols []string) *FDSet {
	keep := make(map[string]bool, len(cols))
	for _, c := range cols {
		keep[c] = true
	}
	out := NewFDSet()
	for _, g := range f.cols {
		var kept []string
		for _, c := range g {
			if keep[c] {
				kept = append(kept, c)
			}
		}
		if len(kept) >= 2 {
			out.AddGroup(kept...)
		}
	}
	return out
}

// Clone deep-copies the set.
func (f *FDSet) Clone() *FDSet {
	out := NewFDSet()
	for _, g := range f.cols {
		if len(g) > 0 {
			out.AddGroup(g...)
		}
	}
	return out
}

// Validate checks that every declared dependency actually holds in t: within
// an equivalence class, equal values in one column imply equal values in the
// others, row for row. It returns the first violation found.
func (f *FDSet) Validate(t *Table) error {
	for _, g := range f.cols {
		if len(g) < 2 {
			continue
		}
		idx := make([]int, len(g))
		for i, c := range g {
			j, ok := t.ColIndex(c)
			if !ok {
				return fmt.Errorf("fd: column %q not in table", c)
			}
			idx[i] = j
		}
		// For a bidirectional FD over the group, the tuple of all group
		// values must be determined by any single member. Checking the first
		// member against the rest (both directions) suffices pairwise.
		for k := 1; k < len(idx); k++ {
			if err := checkBijective(t, idx[0], idx[k], g[0], g[k]); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkBijective verifies a ↔ b: equal values of a imply equal values of b
// and vice versa.
func checkBijective(t *Table, a, b int, an, bn string) error {
	fwd := make(map[string]string)
	rev := make(map[string]string)
	for i := 0; i < t.NumRows(); i++ {
		va, vb := t.Cell(i, a), t.Cell(i, b)
		if prev, ok := fwd[va]; ok && prev != vb {
			return fmt.Errorf("fd violation: %s=%q maps to both %s=%q and %q (row %d)", an, va, bn, prev, vb, i)
		}
		fwd[va] = vb
		if prev, ok := rev[vb]; ok && prev != va {
			return fmt.Errorf("fd violation: %s=%q maps to both %s=%q and %q (row %d)", bn, vb, an, prev, va, i)
		}
		rev[vb] = va
	}
	return nil
}

// Mine discovers bidirectional FDs from data: every pair of columns whose
// values are in one-to-one correspondence across all rows is grouped. This
// is the "readily available in many databases" schema knowledge the paper
// assumes; mining it from a sample keeps the reproduction self-contained
// when no schema is provided.
func Mine(t *Table) *FDSet {
	out := NewFDSet()
	n := t.NumCols()
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if checkBijective(t, a, b, t.Columns()[a], t.Columns()[b]) == nil {
				out.AddGroup(t.Columns()[a], t.Columns()[b])
			}
		}
	}
	return out
}
