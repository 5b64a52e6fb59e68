package sqlfront

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/table"
)

// DB is a registry of named tables that LLM-SQL statements run against.
// Statements may join any number of registered tables (FROM a JOIN b ON ...),
// including the same table under two aliases.
//
// A DB is safe for concurrent use: registration is guarded, statements
// resolve their tables against a consistent snapshot of the registry, and
// execution never mutates a registered table (stages project fresh copies).
// Registering a new table under an existing name does not affect statements
// already executing against the old one.
type DB struct {
	mu      sync.RWMutex
	tables  map[string]*table.Table // guarded by mu
	version uint64                  // guarded by mu
}

// NewDB returns an empty registry.
func NewDB() *DB {
	return &DB{tables: make(map[string]*table.Table)}
}

// Register makes t queryable under name (case-sensitive, last write wins).
// Statements never mutate a registered table, and the caller must not
// either: its dictionary (table.Dictionary) is built at the first WHERE that
// filters it and shared by every statement after it, which evaluates its
// plain-column predicates once per distinct value.
func (db *DB) Register(name string, t *table.Table) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.tables[name] = t
	db.version++
}

// Version increments on every Register; prepared statements use it to detect
// a stale registry snapshot.
func (db *DB) Version() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.version
}

// Tables returns the registered names in sorted order.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ExecConfig extends the query execution config with the planner toggle and
// the serving runtime's hooks.
type ExecConfig struct {
	query.Config
	// Naive disables the logical planner's optimizations: no predicate
	// pushdown (below or above the join), one LLM stage per call occurrence
	// instead of per distinct call, occurrence order instead of cost-based
	// filter ordering, and no cascading of residual conjuncts between
	// stages. Query semantics are unchanged — the simulated oracle keys its
	// per-row draws by row content, so a row's answer does not depend on
	// which plan fed it to a stage — but serving cost (LLMCalls, JCT) is.
	// One caveat survives, faithfully to the paper's Sec. 6.4: on relations
	// whose name carries a non-zero oracle position coefficient (the bundled
	// datasets), per-row accuracy still depends on where GGR serializes the
	// key field, and reordering may choose different field orders for
	// different stage inputs — so borderline rows can flip between plans
	// there, exactly as a position-sensitive real model would.
	Naive bool
	// StageRunner, when non-nil, executes every LLM stage in place of
	// query.RunStageContext. The concurrent serving runtime
	// (internal/runtime) injects its cross-query batching and
	// result-caching executor here; the hook must honor ctx and return
	// outputs indexed by the stage table's rows, exactly as
	// query.RunStageContext does. The serving backend itself is selected by
	// the embedded query.Config.Backend — StageRunner sits above that seam.
	StageRunner func(ctx context.Context, spec query.Spec, tbl *table.Table, cfg query.Config) (*query.StageResult, error)
	// StageObserver, when non-nil, receives one StageObservation per LLM
	// stage the statement executed, after the statement completes
	// successfully. RowsOut is filled in (and selectivity thereby observed)
	// only for stages whose output the WHERE cascade consumed to prune the
	// working relation; projection and aggregate stages report RowsOut = -1.
	// The serving runtime injects its per-StageKey rollup collector here.
	StageObserver func(obs.StageObservation)
}

// Output lengths of ad-hoc statements' stages, in tokens — the regimes of
// Table 1 (benchmark specs carry their own): a filter answers with one
// choice, an aggregate with one score, a projection with a sentence.
const (
	filterOut = 2
	projOut   = 40
	aggOut    = 2
)

// Result is an executed statement's output relation plus serving statistics.
type Result struct {
	Columns []string
	Rows    [][]string
	// JCT is total virtual serving time over all LLM stages; HitRate the
	// prompt-token-weighted prefix cache hit rate; SolverSeconds total
	// reordering time; LLMCalls the number of model invocations.
	JCT           float64
	HitRate       float64
	SolverSeconds float64
	LLMCalls      int
	Stages        int
}

// Exec parses, plans, and runs one LLM-SQL statement. Every LLM stage is
// scheduled under cfg.Policy, so switching the policy (no-cache / original /
// GGR) changes only performance, never results. The logical plan additionally
// pushes table-local plain predicates below the join, places the join ahead
// of every LLM stage, runs each distinct LLM call once, and cascades
// cost-ordered LLM filters so expensive stages see only rows the cheap ones
// kept (see Plan); cfg.Naive reverts to the unoptimized plan for comparison.
// Exec is ExecContext without cancellation.
func (db *DB) Exec(src string, cfg ExecConfig) (*Result, error) {
	//llmqlint:detached -- no-cancellation convenience wrapper over ExecContext
	return db.ExecContext(context.Background(), src, cfg)
}

// ExecContext is Exec honoring ctx: cancellation is checked before every
// LLM stage (and between engine steps within one), and a canceled statement
// returns an error wrapping ctx.Err().
func (db *DB) ExecContext(ctx context.Context, src string, cfg ExecConfig) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return db.ExecParsedContext(ctx, q, cfg)
}

// ExecParsedContext is ExecContext for an already-parsed statement (callers
// that inspect the AST first, e.g. llmq.ExecSQL, avoid parsing twice).
// Binding resolves q's column references in place, so q is consumed:
// executing it again requires a fresh Parse (or a Prepared statement, which
// keeps the bound form and both plans for repeated execution).
func (db *DB) ExecParsedContext(ctx context.Context, q *Query, cfg ExecConfig) (*Result, error) {
	st, err := db.prepareParsed(q)
	if err != nil {
		return nil, err
	}
	return db.execPlan(ctx, st, cfg)
}

// preparedState is a statement after parsing, binding, validation, and
// planning: everything execution needs except the per-run configuration.
// It is immutable after construction, so any number of executions may share
// it concurrently.
type preparedState struct {
	q       *Query
	sc      *scope
	joins   []boundJoin
	planned *Plan // optimized
	naive   *Plan // occurrence-ordered, no pushdown
	version uint64
}

// prepareParsed binds and plans a parsed statement against the current
// registry snapshot. q is consumed (binding rewrites it in place).
func (db *DB) prepareParsed(q *Query) (*preparedState, error) {
	sc, version, err := db.scopeFor(q)
	if err != nil {
		return nil, err
	}
	joins, err := bind(q, sc)
	if err != nil {
		return nil, err
	}
	if err := validate(q); err != nil {
		return nil, err
	}
	planned, err := BuildPlan(q, sc, true)
	if err != nil {
		return nil, err
	}
	naive, err := BuildPlan(q, sc, false)
	if err != nil {
		return nil, err
	}
	return &preparedState{q: q, sc: sc, joins: joins, planned: planned, naive: naive, version: version}, nil
}

// execPlan runs a prepared statement. It never mutates st, so concurrent
// executions of the same prepared statement are safe. ctx is checked before
// every LLM stage and passed through to the stage runner, so a canceled
// statement stops between stages (mid-cascade, the remaining costlier
// stages never run) and mid-batch inside one.
func (db *DB) execPlan(ctx context.Context, st *preparedState, cfg ExecConfig) (*Result, error) {
	q, sc, joins := st.q, st.sc, st.joins
	pl := st.planned
	if cfg.Naive {
		pl = st.naive
	}

	res := &Result{}
	var promptTok, matchedTok int64

	// Observability: when the statement is traced (a span rides ctx) or a
	// StageObserver is attached, every LLM stage gets a "stage:<name>" child
	// span and a StageObservation record. Both are skipped entirely otherwise
	// — the nil-span fast path keeps untraced statements allocation-free.
	traceSp := obs.FromContext(ctx)
	observing := traceSp != nil || cfg.StageObserver != nil
	type stageRecord struct {
		ob obs.StageObservation
		sp *obs.Span
	}
	var records []*stageRecord
	var lastRec *stageRecord

	runStage := func(spec query.Spec, tbl *table.Table) (*query.StageResult, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		run := query.RunStageContext
		if cfg.StageRunner != nil {
			run = cfg.StageRunner
		}
		sctx := ctx
		var sp *obs.Span
		if observing {
			sp = traceSp.Child("stage:" + spec.Name)
			sp.Set("dataset", spec.Dataset)
			sp.Set("rows", tbl.NumRows())
			sctx = obs.With(sctx, sp)
		}
		st, err := run(sctx, spec, tbl, cfg.Config)
		sp.End()
		if err != nil {
			sp.Set("error", err.Error())
			return nil, err
		}
		res.Stages++
		res.JCT += st.Metrics.JCT
		res.SolverSeconds += st.SolverSeconds
		res.LLMCalls += st.ModelCalls
		promptTok += st.Metrics.PromptTokens
		matchedTok += st.Metrics.MatchedTokens
		if observing {
			lastRec = &stageRecord{
				ob: obs.StageObservation{
					StageKey:      query.StageKey(spec, tbl.Columns(), cfg.Config),
					Name:          spec.Name,
					Dataset:       spec.Dataset,
					Rows:          tbl.NumRows(),
					RowsOut:       -1, // unobserved until the cascade prunes on this stage
					ModelCalls:    st.ModelCalls,
					PromptTokens:  st.Metrics.PromptTokens,
					MatchedTokens: st.Metrics.MatchedTokens,
					JCTSeconds:    st.Metrics.JCT,
					SolverSeconds: st.SolverSeconds,
				},
				sp: sp,
			}
			records = append(records, lastRec)
		}
		return st, nil
	}

	// 1. Table-local pushdown: prune each base table with its own plain
	// predicates below the join, so the join itself is cheaper and no LLM
	// stage ever sees a row a cheap filter can discard. A base table is a
	// registered one, so its shared dictionary lets each comparison run once
	// per distinct value.
	bases := make([]*table.Table, len(sc.tables))
	for i := range sc.tables {
		bases[i] = sc.tables[i].tbl
		if pl.TablePushed[i] == nil {
			continue
		}
		passing, err := passingRows(bases[i], pl.TablePushed[i], nil, sc.lookupFor(i), bases[i].Dictionary())
		if err != nil {
			return nil, err
		}
		bases[i] = bases[i].FilterRows(passing)
	}

	// 2. Join placement: materialize the joined working relation before any
	// model stage, so LLM calls run on the joined-and-filtered relation only.
	working := sc.joinAll(bases, joins)

	// 3. Plain predicates spanning tables run right after the join.
	if pl.Pushed != nil {
		passing, err := passingRows(working, pl.Pushed, nil, working.ColIndex, nil)
		if err != nil {
			return nil, err
		}
		working = working.FilterRows(passing)
	}

	// 4. Stages the WHERE residual depends on, one per distinct call,
	// cheapest-rank-first (cost.go). Each residual conjunct is evaluated —
	// and the working relation pruned — as soon as the stage outputs it
	// needs exist, so later, costlier stages run over fewer rows. Naive mode
	// keeps occurrence order and evaluates the WHERE in one piece at the
	// end, exactly the unoptimized cascade.
	pre := pl.PreStages
	var pending []Expr
	if pl.Residual != nil {
		if cfg.Naive {
			pending = []Expr{pl.Residual}
		} else {
			pre = orderStagesByCost(pre, pl.Residual, working)
			pending = conjuncts(pl.Residual)
		}
	}
	outputs := map[string][]string{}
	// recordByKey maps a residual call's key to its stage record, so the
	// prune that consumes the stage's outputs can back-fill the observed
	// RowsOut (and thereby the stage's selectivity).
	recordByKey := map[string]*stageRecord{}
	applyReady := func() error {
		var ready Expr
		var rest []Expr
		for _, c := range pending {
			ok := true
			for k := range llmKeysOf(c) {
				if _, have := outputs[k]; !have {
					ok = false
					break
				}
			}
			if ok {
				ready = conjoin(ready, c)
			} else {
				rest = append(rest, c)
			}
		}
		pending = rest
		if ready == nil {
			return nil
		}
		passing, err := passingRows(working, ready, outputs, working.ColIndex, nil)
		if err != nil {
			return err
		}
		working = working.FilterRows(passing)
		for k, outs := range outputs {
			kept := make([]string, len(passing))
			for i, p := range passing {
				if p < len(outs) {
					kept[i] = outs[p]
				}
			}
			outputs[k] = kept
		}
		for k := range llmKeysOf(ready) {
			rec := recordByKey[k]
			if rec == nil || rec.ob.RowsOut >= 0 {
				continue
			}
			rec.ob.RowsOut = len(passing)
			rec.sp.Set("rowsOut", len(passing))
			if rec.ob.Rows > 0 {
				rec.sp.Set("selectivity", float64(len(passing))/float64(rec.ob.Rows))
			}
		}
		return nil
	}
	for _, st := range pre {
		lastRec = nil
		outs, err := runPlannedStage(st, sc.datasetName(), working, runStage)
		if err != nil {
			return nil, err
		}
		outputs[st.Call.Key()] = outs
		if lastRec != nil {
			recordByKey[st.Call.Key()] = lastRec
		}
		// Naive mode does not cascade: every occurrence-ordered stage runs
		// over the same unpruned relation, and the WHERE applies once below.
		if !cfg.Naive {
			if err := applyReady(); err != nil {
				return nil, err
			}
		}
	}
	// Naive WHERE evaluation (and the no-LLM WHERE, which waits on nothing).
	if err := applyReady(); err != nil {
		return nil, err
	}

	// 5. Remaining stages (SELECT projections, aggregate arguments) over
	// surviving rows only.
	for _, st := range pl.PostStages {
		outs, err := runPlannedStage(st, sc.datasetName(), working, runStage)
		if err != nil {
			return nil, err
		}
		outputs[st.Call.Key()] = outs
	}

	// 6. Materialize the output relation (HAVING filters groups here).
	var err error
	if isAggregated(q) {
		err = buildGrouped(q, working, outputs, res)
	} else {
		err = buildRowwise(q, working, outputs, res)
	}
	if err != nil {
		return nil, err
	}

	// 7. ORDER BY and LIMIT shape the final relation.
	if err := applyOrderLimit(q, res, sc); err != nil {
		return nil, err
	}
	finishStats(res, promptTok, matchedTok)
	// Flush observations only on success: a failed statement's partial
	// stages would skew the per-StageKey rollups.
	if cfg.StageObserver != nil {
		for _, rec := range records {
			cfg.StageObserver(rec.ob)
		}
	}
	return res, nil
}

// datasetName identifies the statement's relation in stage specs and oracle
// seeds: the table name, or the aliases of a join.
func (sc *scope) datasetName() string {
	if !sc.multi {
		return sc.tables[0].name
	}
	parts := make([]string, len(sc.tables))
	for i, t := range sc.tables {
		parts[i] = t.alias
	}
	return strings.Join(parts, "+")
}

// runPlannedStage projects the stage's fields, fills in the serving spec for
// its type, and runs it on the simulator, returning per-row outputs.
func runPlannedStage(st PlannedStage, dataset string, working *table.Table,
	runStage func(query.Spec, *table.Table) (*query.StageResult, error)) ([]string, error) {

	proj, err := projectCall(working, st.Call)
	if err != nil {
		return nil, err
	}
	hashes := rowHashes(proj)
	spec := query.Spec{
		Name:       st.Name(),
		Dataset:    dataset,
		Type:       st.Type,
		UserPrompt: st.Call.Prompt,
		KeyField:   keyField(proj, st.Call),
		// Key the oracle's latent draws by row content (not position), so a
		// row's answer is independent of how the plan ordered, joined, or
		// pruned the stage's input; planned and naive executions then return
		// identical relations up to the oracle's field-position accuracy
		// model (see ExecConfig.Naive). The output budget follows the key.
		RowKeys: rowKeysFor(hashes, st.Call.Prompt),
	}
	switch st.Type {
	case query.Filter:
		spec.OutTokens = filterOut
		spec.Choices, spec.TruthHidden = filterChoices(proj, hashes, st.Call.Prompt, st.Literals)
	case query.Aggregation:
		spec.OutTokens = aggOut
		truthCol := "score"
		if _, ok := proj.Hidden("score"); !ok {
			truthCol = synthesizeScores(proj, hashes, st.Call.Prompt)
		}
		spec.TruthHidden = truthCol
	default:
		spec.OutTokens = projOut
	}
	stRes, err := runStage(spec, proj)
	if err != nil {
		return nil, err
	}
	return stRes.Outputs, nil
}

// rowKeysFor derives content-keyed oracle row keys for a stage from its
// rows' hashes (rowHashes), seeded by the call's prompt so different questions
// draw independently.
func rowKeysFor(hashes []uint64, prompt string) func(int) uint64 {
	seed := strHash(prompt)
	keys := make([]uint64, len(hashes))
	for i, h := range hashes {
		keys[i] = splitmix(h + seed)
	}
	return func(row int) uint64 { return keys[row] }
}

// passingRows evaluates e over every row of t, resolving LLM comparisons
// against the outputs map (keyed by LLMCall.Key, indexed by row) and plain
// columns through lookup (t.ColIndex for relations in their own namespace;
// scope.lookupFor for canonical names over a base table). e is compiled once
// (compilePred). dict, when non-nil, is t's dictionary: a plain-column leaf
// then compares each distinct value of its column once and reads every row's
// answer by the row's code. Without it, each leaf compares every row.
func passingRows(t *table.Table, e Expr, outputs map[string][]string, lookup func(string) (int, bool), dict *table.Dictionary) ([]int, error) {
	pass, err := compilePred(e, func(c *Compare) (rowPred, error) {
		lit := compileLiteral(c)
		if c.LLM != nil {
			outs, ok := outputs[c.LLM.Key()]
			if !ok {
				return nil, fmt.Errorf("sql: internal error: no stage outputs for %s", c.LLM)
			}
			return func(row int) bool {
				var v string
				if row < len(outs) {
					v = outs[row]
				}
				return lit.match(v)
			}, nil
		}
		ci, ok := lookup(c.Col.Column)
		if !ok {
			return nil, fmt.Errorf("sql: unknown column %q in WHERE", c.Col.Column)
		}
		if dict == nil {
			return func(row int) bool { return lit.match(t.Cell(row, ci)) }, nil
		}
		codes, first := dict.Codes[ci], dict.First[ci]
		// memo[id] is 0 until value id is compared, then 1 (fails) or 2
		// (holds).
		memo := make([]uint8, len(first))
		return func(row int) bool {
			id := codes[row]
			if m := memo[id]; m != 0 {
				return m == 2
			}
			holds := lit.match(t.Cell(int(first[id]), ci))
			memo[id] = 1
			if holds {
				memo[id] = 2
			}
			return holds
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var passing []int
	for i := 0; i < t.NumRows(); i++ {
		if pass(i) {
			passing = append(passing, i)
		}
	}
	return passing, nil
}

// rowPred is a compiled boolean expression over one row (or, in HAVING, one
// group).
type rowPred func(i int) bool

// compilePred lowers a boolean tree into one closure, compiling each
// comparison leaf once with leaf, left to right; the first error leaf
// returns fails the whole. AND and OR short-circuit left to right.
func compilePred(e Expr, leaf func(*Compare) (rowPred, error)) (rowPred, error) {
	switch n := e.(type) {
	case *BinaryExpr:
		l, err := compilePred(n.Left, leaf)
		if err != nil {
			return nil, err
		}
		r, err := compilePred(n.Right, leaf)
		if err != nil {
			return nil, err
		}
		if n.Op == "AND" {
			return func(i int) bool { return l(i) && r(i) }, nil
		}
		return func(i int) bool { return l(i) || r(i) }, nil
	case *NotExpr:
		in, err := compilePred(n.Inner, leaf)
		if err != nil {
			return nil, err
		}
		return func(i int) bool { return !in(i) }, nil
	case *Compare:
		return leaf(n)
	}
	return func(int) bool { return false }, nil
}

// literal is a comparison's operator and right side, the literal parsed once
// per statement instead of once per value compared.
type literal struct {
	op CompareOp
	ordered
}

func compileLiteral(c *Compare) literal {
	return literal{op: c.Op, ordered: orderedOf(c.Literal)}
}

// match compares a cell or model output against the literal under
// valueLess's total order. Equality under it (and its negation) is numeric
// whenever both sides parse as finite numbers ('5.0' equals a score of 5,
// quoted or not) and exact string equality otherwise. The zero operator is
// equality.
func (l literal) match(v string) bool {
	c := orderedOf(v).compare(l.ordered)
	switch l.op {
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	case OpNeq:
		return c != 0
	}
	return c == 0
}

// buildRowwise materializes a non-aggregate SELECT: one output row per
// surviving input row, mixing static columns and LLM stage outputs.
func buildRowwise(q *Query, working *table.Table, outputs map[string][]string, res *Result) error {
	type colSource struct {
		name    string
		static  int      // column index into working, or -1
		outputs []string // LLM outputs when static < 0
	}
	var sources []colSource
	llmSeq := 0
	for _, item := range q.Select {
		switch {
		case item.Star:
			for ci, c := range working.Columns() {
				sources = append(sources, colSource{name: c, static: ci})
			}
		case item.LLM == nil:
			ci, ok := working.ColIndex(item.Col.Column)
			if !ok {
				return fmt.Errorf("sql: unknown column %q", item.Col.Column)
			}
			sources = append(sources, colSource{name: aliasOr(item, item.Col.Column), static: ci})
		default:
			llmSeq++
			outs, ok := outputs[item.LLM.Key()]
			if !ok {
				return fmt.Errorf("sql: internal error: no stage outputs for %s", item.LLM)
			}
			sources = append(sources, colSource{
				name:    aliasOr(item, fmt.Sprintf("llm_%d", llmSeq)),
				static:  -1,
				outputs: outs,
			})
		}
	}

	for _, s := range sources {
		res.Columns = append(res.Columns, s.name)
	}
	// Sized exactly: a caller may keep the relation long after the
	// statement, so it carries no growth slack.
	if n := working.NumRows(); n > 0 {
		res.Rows = make([][]string, 0, n)
	}
	for i := 0; i < working.NumRows(); i++ {
		row := make([]string, len(sources))
		for j, s := range sources {
			if s.static >= 0 {
				row[j] = working.Cell(i, s.static)
			} else if i < len(s.outputs) {
				row[j] = s.outputs[i]
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return nil
}

// buildGrouped materializes an aggregated SELECT: one output row per GROUP
// BY group (or a single global group), folding plain columns and LLM stage
// outputs through the aggregate functions.
func buildGrouped(q *Query, working *table.Table, outputs map[string][]string, res *Result) error {
	groupIdx := make([]int, len(q.GroupBy))
	for i, c := range q.GroupBy {
		ci, ok := working.ColIndex(c.Column)
		if !ok {
			return fmt.Errorf("sql: unknown column %q in GROUP BY", c.Column)
		}
		groupIdx[i] = ci
	}

	// Groups in first-appearance order; no GROUP BY = one global group, which
	// aggregates even an empty relation into one row (COUNT(*) = 0).
	var keys []string
	rowsByKey := map[string][]int{}
	if len(q.GroupBy) == 0 {
		all := make([]int, working.NumRows())
		for i := range all {
			all[i] = i
		}
		keys = []string{""}
		rowsByKey[""] = all
	} else {
		for i := 0; i < working.NumRows(); i++ {
			var kb strings.Builder
			for _, ci := range groupIdx {
				kb.WriteString(working.Cell(i, ci))
				kb.WriteByte(0)
			}
			k := kb.String()
			if _, ok := rowsByKey[k]; !ok {
				keys = append(keys, k)
			}
			rowsByKey[k] = append(rowsByKey[k], i)
		}
	}

	aggSeq := 0
	for _, item := range q.Select {
		if item.Agg == AggNone {
			res.Columns = append(res.Columns, aliasOr(item, item.Col.Column))
		} else {
			aggSeq++
			def := strings.ToLower(string(item.Agg)) + "_" + strconv.Itoa(aggSeq)
			res.Columns = append(res.Columns, aliasOr(item, def))
		}
	}

	// Every select item and HAVING leaf is resolved once, before the first
	// group; each group then only reads and folds its rows.
	groupPasses := func(int) bool { return true }
	if q.Having != nil {
		var err error
		if groupPasses, err = compileHaving(q.Having, working, outputs, func(g int) []int { return rowsByKey[keys[g]] }); err != nil {
			return err
		}
	}
	items := make([]func(rows []int) string, len(q.Select))
	for i, item := range q.Select {
		var err error
		if items[i], err = groupValue(item, working, outputs); err != nil {
			return err
		}
	}
	// No growth slack, as in buildRowwise.
	res.Rows = make([][]string, 0, len(keys))
	for g, k := range keys {
		if !groupPasses(g) {
			continue
		}
		rows := rowsByKey[k]
		out := make([]string, len(items))
		for i, item := range items {
			out[i] = item(rows)
		}
		res.Rows = append(res.Rows, out)
	}
	if len(res.Rows) == 0 {
		res.Rows = nil // an empty relation is nil, as in buildRowwise
	}
	return nil
}

// compileHaving compiles a HAVING expression into a test of group g, whose
// rows of t are rowsOf(g), with the compiler the WHERE uses. Each leaf's left
// side is a group value, as a select item is (groupValue).
func compileHaving(e Expr, t *table.Table, outputs map[string][]string, rowsOf func(g int) []int) (rowPred, error) {
	return compilePred(e, func(c *Compare) (rowPred, error) {
		lit := compileLiteral(c)
		value, err := groupValue(SelectItem{Agg: c.Agg, AggStar: c.AggStar, LLM: c.LLM, Col: c.Col}, t, outputs)
		if err != nil {
			return nil, err
		}
		return func(g int) bool { return lit.match(value(rowsOf(g))) }, nil
	})
}

// groupValue resolves a select item of a grouped statement against t and
// outputs once, and returns its value over a group's rows: a grouped
// column's value (validate guarantees it is constant within the group), or
// an aggregate's fold of a column or an LLM call's outputs.
func groupValue(item SelectItem, t *table.Table, outputs map[string][]string) (func(rows []int) string, error) {
	if item.AggStar {
		// COUNT(*) needs only the group size.
		return func(rows []int) string { return aggregate(item.Agg, true, nil, len(rows)) }, nil
	}
	var outs []string
	ci := -1 // the column read, or -1 for outs
	if item.LLM != nil {
		var ok bool
		if outs, ok = outputs[item.LLM.Key()]; !ok {
			return nil, fmt.Errorf("sql: internal error: no stage outputs for %s", item.LLM)
		}
	} else {
		var ok bool
		if ci, ok = t.ColIndex(item.Col.Column); !ok {
			return nil, fmt.Errorf("sql: unknown column %q", item.Col.Column)
		}
	}
	if item.Agg == AggNone {
		return func(rows []int) string {
			if len(rows) == 0 {
				return ""
			}
			return t.Cell(rows[0], ci)
		}, nil
	}
	return func(rows []int) string {
		vals := make([]string, 0, len(rows))
		for _, r := range rows {
			switch {
			case ci >= 0:
				vals = append(vals, t.Cell(r, ci))
			case r < len(outs):
				vals = append(vals, outs[r])
			}
		}
		return aggregate(item.Agg, false, vals, len(rows))
	}, nil
}

// aggregate folds one group's values. COUNT counts non-empty values
// (COUNT(*) counts rows); SUM and AVG fold the values that parse as numbers;
// MIN and MAX pick the extremum under valueLess's total order, returning the
// chosen value verbatim.
func aggregate(fn AggFunc, star bool, vals []string, groupSize int) string {
	switch fn {
	case AggCount:
		if star {
			return strconv.Itoa(groupSize)
		}
		n := 0
		for _, v := range vals {
			if v != "" {
				n++
			}
		}
		return strconv.Itoa(n)
	case AggSum, AggAvg:
		var sum float64
		var n int
		for _, v := range vals {
			if f, ok := parseNum(v); ok {
				sum += f
				n++
			}
		}
		if fn == AggAvg {
			if n == 0 {
				return strconv.FormatFloat(0, 'f', 3, 64)
			}
			return strconv.FormatFloat(sum/float64(n), 'f', 3, 64)
		}
		return strconv.FormatFloat(sum, 'f', 3, 64)
	case AggMin, AggMax:
		if len(vals) == 0 {
			return ""
		}
		best := vals[0]
		for _, v := range vals[1:] {
			if (fn == AggMin && valueLess(v, best)) || (fn == AggMax && valueLess(best, v)) {
				best = v
			}
		}
		return best
	}
	return ""
}

// applyOrderLimit sorts the result relation by the ORDER BY keys (compared
// left to right, each ascending or descending independently) and truncates it
// to LIMIT. Every key must name an output column of the statement: an alias,
// a column as it was selected, or any spelling (qualified or not) that
// resolves to a selected column's canonical name.
func applyOrderLimit(q *Query, res *Result, sc *scope) error {
	if len(q.OrderBy) > 0 {
		type sortKey struct {
			col  int
			desc bool
		}
		keys := make([]sortKey, len(q.OrderBy))
		for i, o := range q.OrderBy {
			name := o.Col.display()
			col := slices.Index(res.Columns, name)
			if col < 0 && sc != nil {
				// Not an alias or verbatim header; try the reference's
				// canonical working-relation name (ORDER BY request ↔
				// SELECT t.request).
				if canon, _, err := sc.resolve(o.Col, len(sc.tables), ""); err == nil {
					col = slices.Index(res.Columns, canon)
				}
			}
			if col < 0 {
				return fmt.Errorf("sql: ORDER BY column %q is not an output column of the statement", name)
			}
			keys[i] = sortKey{col: col, desc: o.Desc}
		}
		sort.SliceStable(res.Rows, func(i, j int) bool {
			for _, k := range keys {
				a, b := res.Rows[i][k.col], res.Rows[j][k.col]
				if a == b {
					continue
				}
				if k.desc {
					a, b = b, a
				}
				if valueLess(a, b) {
					return true
				}
				if valueLess(b, a) {
					return false
				}
				// Equal under the order (e.g. '5' vs '5.0'): next key.
			}
			return false
		})
	}
	if q.Limit >= 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return nil
}

// parseNum parses a finite number. "NaN" and "Inf" (which ParseFloat
// accepts) are treated as plain strings: NaN compares as neither less nor
// greater than anything and would break valueLess's strict weak ordering.
// A string whose first byte is not a digit, a sign or a point is rejected
// without ParseFloat: it either fails to parse (which allocates an error) or
// spells Inf or NaN.
func parseNum(s string) (float64, bool) {
	if s == "" {
		return 0, false
	}
	if c := s[0]; (c < '0' || c > '9') && c != '+' && c != '-' && c != '.' {
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, false
	}
	return f, true
}

// valueLess is a total order over cell values: finite numbers order among
// themselves numerically and before every non-numeric string; non-numeric
// strings order lexicographically. Keeping it a strict weak ordering (no
// mixed numeric/lexicographic cycles) is what sort.SliceStable and the
// MIN/MAX fold both require.
func valueLess(a, b string) bool { return orderedOf(a).compare(orderedOf(b)) < 0 }

// ordered is a cell value parsed for valueLess's order.
type ordered struct {
	text  string
	num   float64
	isNum bool
}

func orderedOf(s string) ordered {
	num, isNum := parseNum(s)
	return ordered{text: s, num: num, isNum: isNum}
}

// compare is -1, 0 or +1 as a sorts before, level with, or after b under
// valueLess's order.
func (a ordered) compare(b ordered) int {
	switch {
	case a.isNum && b.isNum:
		return cmp.Compare(a.num, b.num)
	case a.isNum:
		return -1
	case b.isNum:
		return 1
	}
	return strings.Compare(a.text, b.text)
}

func finishStats(res *Result, promptTok, matchedTok int64) {
	if promptTok > 0 {
		res.HitRate = float64(matchedTok) / float64(promptTok)
	}
}

// isAggregated reports whether the statement needs grouped evaluation.
// HAVING forces it: a group filter over an ungrouped statement treats the
// whole relation as one group, exactly like a bare aggregate select.
func isAggregated(q *Query) bool {
	if len(q.GroupBy) > 0 || q.Having != nil {
		return true
	}
	for _, item := range q.Select {
		if item.Agg != AggNone {
			return true
		}
	}
	return false
}

// validate checks the aggregate/grouping shape of a bound statement; column
// existence and ambiguity were already settled by bind. ORDER BY is resolved
// against the output relation at execution time (aliases and star expansion
// are only known then).
func validate(q *Query) error {
	grouped := map[string]bool{}
	for _, c := range q.GroupBy {
		grouped[c.Column] = true
	}
	aggregated := isAggregated(q)

	for _, item := range q.Select {
		switch {
		case item.Star:
			if aggregated {
				return fmt.Errorf("sql: SELECT * cannot be combined with aggregates, GROUP BY, or HAVING")
			}
		case item.Agg != AggNone:
			// Any aggregate argument shape is legal.
		case item.LLM != nil:
			if aggregated {
				return fmt.Errorf("sql: LLM projection must be wrapped in an aggregate when aggregates, GROUP BY, or HAVING are present")
			}
		default:
			if aggregated && !grouped[item.Col.Column] {
				return fmt.Errorf("sql: column %q must appear in GROUP BY or under an aggregate", item.Col.Column)
			}
		}
	}

	// HAVING is evaluated per group: every leaf must be an aggregate or a
	// grouped column; a bare LLM call would be a per-row value.
	var herr error
	walkCompares(q.Having, func(c *Compare) {
		if herr != nil || c.Agg != AggNone {
			return
		}
		switch {
		case c.LLM != nil:
			herr = fmt.Errorf("sql: LLM call in HAVING must be wrapped in an aggregate (it is a per-row value; HAVING filters groups)")
		case !grouped[c.Col.Column]:
			herr = fmt.Errorf("sql: column %q in HAVING must appear in GROUP BY or under an aggregate", c.Col.Column)
		}
	})
	return herr
}

func aliasOr(item SelectItem, def string) string {
	if item.Alias != "" {
		return item.Alias
	}
	return def
}

// projectCall restricts the table to the call's field list (or keeps all
// fields for {T.*}); hidden columns and restricted FDs carry over. The
// result is always a fresh table so stages may attach synthetic truth
// columns without mutating the registered relation.
func projectCall(t *table.Table, c LLMCall) (*table.Table, error) {
	if c.AllFields {
		return t.Select(t.Columns()...)
	}
	cols := make([]string, len(c.Fields))
	for i, f := range c.Fields {
		cols[i] = f.Column
	}
	return t.Select(cols...)
}

// keyField picks the field the oracle's position model watches: the first
// listed field (the paper's examples put the semantic key first).
func keyField(t *table.Table, c LLMCall) string {
	if len(c.Fields) > 0 {
		return c.Fields[0].Column
	}
	cols := t.Columns()
	if len(cols) > 0 {
		return cols[0]
	}
	return ""
}

// filterChoices determines the answer alphabet for an ad-hoc filter stage.
// When the table carries ground-truth labels containing every compared
// literal, the oracle answers from them; otherwise a synthetic truth column
// is attached with a deterministic per-row draw over all compared literals
// plus a none-of-the-above complement, so every comparison branch of the
// statement is reachable. The draw is keyed by the rows' hashes (rowHashes) and
// seeded by the call's prompt so two different questions over the same fields
// get independent truths.
func filterChoices(t *table.Table, hashes []uint64, prompt string, literals []string) (choices []string, truthCol string) {
	if len(literals) == 0 {
		literals = []string{"Yes"}
	}
	if labels, ok := t.Hidden("label"); ok {
		distinct := map[string]bool{}
		for _, l := range labels {
			distinct[l] = true
		}
		all := true
		for _, lit := range literals {
			if !distinct[lit] {
				all = false
				break
			}
		}
		if all {
			for l := range distinct {
				choices = append(choices, l)
			}
			sort.Strings(choices)
			return choices, "label"
		}
	}
	choices = append(append([]string(nil), literals...), complementLiteral(literals))
	seed := strHash(prompt)
	for _, lit := range literals {
		seed += uint64(len(lit))
	}
	vals := make([]string, len(hashes))
	for i, h := range hashes {
		vals[i] = choices[splitmix(h+seed)%uint64(len(choices))]
	}
	const col = "__sql_truth"
	if err := t.SetHidden(col, vals); err != nil {
		// Unreachable: vals matches the row count by construction.
		panic(err)
	}
	return choices, col
}

// complementLiteral is the none-of-the-above answer of a synthetic filter
// alphabet. It must not collide with a literal the user actually compares
// against, or that branch's draw is skewed and ambiguous.
func complementLiteral(literals []string) string {
	comp := "NOT " + literals[0]
	for slices.Contains(literals, comp) {
		comp = "NOT " + comp
	}
	return comp
}

// rowHashes keys synthetic ground truth — and, via Spec.RowKeys, the oracle's
// latent answer draws and output budgets — by row content rather than
// position, so a row keeps its truth, its answer and its budget (hence its
// result-cache entry) no matter how pushdown, joins, or projection
// reindex the stage's input table (a real model's answer does not depend on
// where a row sits in the batch either). A stage hashes each row once, and
// its row keys, output budgets and synthetic truth all read the result.
func rowHashes(t *table.Table) []uint64 {
	hashes := make([]uint64, t.NumRows())
	for i := range hashes {
		var h uint64 = 1469598103934665603
		for _, cell := range t.Row(i) {
			h = fnvMix(h, cell)
		}
		hashes[i] = h
	}
	return hashes
}

func strHash(s string) uint64 {
	return fnvMix(1469598103934665603, s)
}

func fnvMix(h uint64, s string) uint64 {
	const prime = 1099511628211
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	h ^= 0x1f
	h *= prime
	return h
}

// synthesizeScores attaches a deterministic 1..5 ground-truth score column
// for ad-hoc aggregates over tables without one, keyed by row content and
// the call's prompt (hashes is rowHashes(t)).
func synthesizeScores(t *table.Table, hashes []uint64, prompt string) string {
	seed := strHash(prompt)
	vals := make([]string, len(hashes))
	for i, h := range hashes {
		vals[i] = strconv.Itoa(1 + int(splitmix(h+seed+77)%5))
	}
	const col = "__sql_score"
	if err := t.SetHidden(col, vals); err != nil {
		panic(err)
	}
	return col
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
