package sqlfront

import (
	"fmt"
	"strconv"

	"repro/internal/query"
)

// Plan is the logical plan of one LLM-SQL statement. The planner applies the
// paper's SQL-level optimizations on top of request reordering:
//
//   - Predicate pushdown below the join: WHERE conjuncts free of LLM calls
//     that reference a single table (TablePushed) are evaluated on that base
//     table before the join; LLM-free conjuncts spanning tables (Pushed) run
//     right after the join. Either way, no model stage ever sees a row a
//     cheap plain-column predicate can discard.
//   - Join placement before every LLM stage: the executor materializes the
//     joined working relation first, so model calls run over the
//     joined-and-filtered relation only.
//   - Invocation dedup: each distinct LLM(prompt, fields...) call — keyed by
//     LLMCall.Key after binding, so qualified and unqualified spellings of
//     the same column collapse — runs exactly one stage per statement, no
//     matter how many times it appears across SELECT and WHERE.
//   - Cost-based filter ordering: the executor reorders PreStages
//     cheapest-rank-first (cost.go) and evaluates each residual conjunct as
//     soon as its stage outputs exist, so expensive filters run over rows
//     already pruned by cheap, selective ones. PreStages are recorded here
//     in occurrence order; ordering needs the materialized working relation
//     for its cost sample and therefore happens at execution time.
//
// Execution order: TablePushed (per base table) → join → Pushed → PreStages
// interleaved with residual-conjunct evaluation → PostStages → select/
// aggregate evaluation → ORDER BY / LIMIT.
type Plan struct {
	// TablePushed[i] is the conjunction of LLM-free WHERE conjuncts
	// referencing only columns of q.From[i] (nil if none), evaluated on the
	// base table below the join.
	TablePushed []Expr
	// Pushed is the conjunction of LLM-free conjuncts spanning more than one
	// table (nil if none), evaluated after the join and before any LLM
	// stage.
	Pushed Expr
	// Residual is the WHERE remainder that needs LLM outputs (nil if none).
	Residual Expr
	// PreStages are the distinct LLM calls Residual depends on, in
	// occurrence order; they run after all pushdown pruning and before the
	// residual conjuncts that consume them.
	PreStages []PlannedStage
	// PostStages are the remaining distinct calls (SELECT projections and
	// aggregate arguments); they run over rows surviving the whole WHERE.
	PostStages []PlannedStage
}

// PlannedStage is one LLM invocation the executor will run.
type PlannedStage struct {
	// Seq numbers stages of the same Type within the statement, starting
	// at 1; it feeds the stage name (sql-where-1, sql-select-2, ...).
	Seq  int
	Call LLMCall
	// Type fixes the stage's serving profile and output semantics: Filter
	// (short categorical answers), Projection (free text), or Aggregation
	// (numeric scores). A deduplicated call used several ways gets the
	// richest type its uses need — aggregate use outranks WHERE comparison,
	// which outranks bare projection — so one stage can serve all of them:
	// an aggregated call emits numeric scores that WHERE can compare against
	// numeric literals, and a WHERE-compared call projected in SELECT shows
	// the categorical answer that passed the filter.
	Type query.Type
	// Literals are the distinct literals the call is compared against in
	// WHERE (in appearance order); they anchor a filter stage's answer
	// alphabet so every comparison branch is reachable.
	Literals []string
}

// Name is the stage identifier used in query.Spec and serving logs.
func (s PlannedStage) Name() string {
	switch s.Type {
	case query.Filter:
		return fmt.Sprintf("sql-where-%d", s.Seq)
	case query.Aggregation:
		return fmt.Sprintf("sql-agg-%d", s.Seq)
	default:
		return fmt.Sprintf("sql-select-%d", s.Seq)
	}
}

// BuildPlan lowers a parsed (and, when sc is non-nil, bound) statement into
// its logical plan. With optimize false it produces the naive plan — no
// pushdown, one stage per LLM call occurrence, occurrence-ordered — which
// the executor exposes (ExecConfig.Naive) so the planned and unplanned costs
// can be compared on identical statements. A nil sc plans as if the
// statement had a single table (every column lands on FROM index 0), which
// is exact for single-table statements. It errors on statements whose
// deduplicated stage types make a comparison unsatisfiable (an aggregated
// call compared against a non-numeric literal).
func BuildPlan(q *Query, sc *scope, optimize bool) (*Plan, error) {
	n := len(q.From)
	if n == 0 {
		n = 1
	}
	pl := &Plan{TablePushed: make([]Expr, n)}
	if q.Where != nil {
		if optimize {
			for _, c := range conjuncts(q.Where) {
				switch idx := homeTable(c, sc); {
				case idx == tableLLM:
					pl.Residual = conjoin(pl.Residual, c)
				case idx == tableMulti:
					pl.Pushed = conjoin(pl.Pushed, c)
				default:
					pl.TablePushed[idx] = conjoin(pl.TablePushed[idx], c)
				}
			}
		} else {
			pl.Residual = q.Where
		}
	}

	// Classify every distinct call by its richest use: Aggregation outranks
	// Filter outranks Projection (see PlannedStage.Type). All literals a
	// call is compared against are collected so a filter stage's answer
	// alphabet covers every comparison branch. Calls appearing under HAVING
	// aggregates are Aggregation-typed like their SELECT counterparts.
	typ := map[string]query.Type{}
	literals := map[string][]string{}
	for _, item := range q.Select {
		if item.LLM != nil && item.Agg != AggNone {
			typ[item.LLM.Key()] = query.Aggregation
		}
	}
	walkCompares(q.Having, func(c *Compare) {
		if c.LLM != nil && c.Agg != AggNone {
			typ[c.LLM.Key()] = query.Aggregation
		}
	})
	walkCompares(pl.Residual, func(c *Compare) {
		if c.LLM == nil {
			return
		}
		k := c.LLM.Key()
		if typ[k] == "" {
			typ[k] = query.Filter
		}
		for _, l := range literals[k] {
			if l == c.Literal {
				return
			}
		}
		literals[k] = append(literals[k], c.Literal)
	})
	for _, item := range q.Select {
		if item.LLM == nil {
			continue
		}
		if k := item.LLM.Key(); typ[k] == "" {
			typ[k] = query.Projection
		}
	}

	// An aggregation-typed stage emits numeric scores, so an equality
	// against a literal that can never be a number would silently match
	// nothing — reject the statement instead. Every other operator stays
	// legal: <> is trivially true, and the ordered operators compare under
	// valueLess's total order, where numbers sort before non-numeric strings.
	var perr error
	walkCompares(pl.Residual, func(c *Compare) {
		if perr != nil || c.LLM == nil || typ[c.LLM.Key()] != query.Aggregation {
			return
		}
		if c.Op != OpEq && c.Op != "" {
			return
		}
		if _, err := strconv.ParseFloat(c.Literal, 64); err != nil {
			perr = fmt.Errorf("sql: %s is aggregated elsewhere in the statement, so its WHERE equality needs a numeric literal, not %q", c.LLM, c.Literal)
		}
	})
	if perr != nil {
		return nil, perr
	}

	seen := map[string]bool{}
	counters := map[query.Type]int{}
	add := func(list *[]PlannedStage, c LLMCall) {
		k := c.Key()
		if optimize && seen[k] {
			return
		}
		seen[k] = true
		counters[typ[k]]++
		*list = append(*list, PlannedStage{
			Seq:      counters[typ[k]],
			Call:     c,
			Type:     typ[k],
			Literals: literals[k],
		})
	}
	walkCompares(pl.Residual, func(c *Compare) {
		if c.LLM != nil {
			add(&pl.PreStages, *c.LLM)
		}
	})
	for _, item := range q.Select {
		if item.LLM != nil {
			add(&pl.PostStages, *item.LLM)
		}
	}
	// HAVING aggregates over LLM calls run as post stages too: they range
	// over the rows surviving the whole WHERE, exactly like SELECT
	// aggregates, and dedup against them via the same key.
	walkCompares(q.Having, func(c *Compare) {
		if c.LLM != nil {
			add(&pl.PostStages, *c.LLM)
		}
	})
	return pl, nil
}

// Sentinel results of homeTable.
const (
	tableLLM   = -1 // conjunct contains an LLM call: not pushable
	tableMulti = -2 // LLM-free but references more than one table
)

// homeTable classifies one conjunct: the single FROM index all its column
// references live in, tableMulti when they span tables, or tableLLM when the
// conjunct contains a model call. With a nil scope every column maps to
// index 0.
func homeTable(e Expr, sc *scope) int {
	if containsLLM(e) {
		return tableLLM
	}
	home := -1
	multi := false
	walkCompares(e, func(c *Compare) {
		idx := 0
		if sc != nil {
			if i, ok := sc.tableOf[c.Col.Column]; ok {
				idx = i
			}
		}
		if home >= 0 && idx != home {
			multi = true
		}
		home = idx
	})
	if multi {
		return tableMulti
	}
	if home < 0 {
		home = 0
	}
	return home
}

// conjuncts flattens nested top-level ANDs into a left-to-right list.
func conjuncts(e Expr) []Expr {
	if b, ok := e.(*BinaryExpr); ok && b.Op == "AND" {
		return append(conjuncts(b.Left), conjuncts(b.Right)...)
	}
	return []Expr{e}
}

// conjoin ANDs two optional expressions, preserving left-to-right order.
func conjoin(a, b Expr) Expr {
	if a == nil {
		return b
	}
	return &BinaryExpr{Op: "AND", Left: a, Right: b}
}

func containsLLM(e Expr) bool {
	found := false
	walkCompares(e, func(c *Compare) {
		if c.LLM != nil {
			found = true
		}
	})
	return found
}

// llmKeysOf collects the distinct LLM call keys a conjunct's evaluation
// depends on.
func llmKeysOf(e Expr) map[string]bool {
	keys := map[string]bool{}
	walkCompares(e, func(c *Compare) {
		if c.LLM != nil {
			keys[c.LLM.Key()] = true
		}
	})
	return keys
}

// walkCompares visits every comparison leaf of e in left-to-right order.
func walkCompares(e Expr, f func(*Compare)) {
	switch n := e.(type) {
	case *BinaryExpr:
		walkCompares(n.Left, f)
		walkCompares(n.Right, f)
	case *NotExpr:
		walkCompares(n.Inner, f)
	case *Compare:
		f(n)
	}
}
