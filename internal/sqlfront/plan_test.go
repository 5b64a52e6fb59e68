package sqlfront

import (
	"reflect"
	"strconv"
	"testing"

	"repro/internal/query"
	"repro/internal/table"
)

// catTicketsTable is ticketsTable plus a plain category column (first 24
// rows "billing", the rest "refund") and a numeric priority column, so
// plain-predicate pushdown has something to prune on. The billing rows come
// first so the pushed-down working table is a prefix of the base table:
// per-row oracle draws then agree between the planned and naive executions
// and result relations can be compared exactly.
func catTicketsTable() *table.Table {
	t := table.New("ticket_id", "category", "priority", "request", "support_response")
	responses := []string{
		"We reset your password and emailed a confirmation link to your inbox.",
		"Your refund was issued and will appear within five business days.",
	}
	for i := 0; i < 40; i++ {
		cat := "billing"
		if i >= 24 {
			cat = "refund"
		}
		t.MustAppendRow(
			"T-"+strconv.Itoa(1000+i),
			cat,
			strconv.Itoa(i%3),
			"Request number "+strconv.Itoa(i)+" about an account issue",
			responses[i%2],
		)
	}
	labels := make([]string, 40)
	for i := range labels {
		if i%4 == 0 {
			labels[i] = "No"
		} else {
			labels[i] = "Yes"
		}
	}
	if err := t.SetHidden("label", labels); err != nil {
		panic(err)
	}
	return t
}

// --- planner -----------------------------------------------------------------

// cols builds an unqualified ColRef list from bare column names.
func cols(names ...string) []ColRef {
	out := make([]ColRef, len(names))
	for i, n := range names {
		out[i] = ColRef{Column: n}
	}
	return out
}

func mustPlan(t *testing.T, q *Query, optimize bool) *Plan {
	t.Helper()
	pl, err := BuildPlan(q, nil, optimize)
	if err != nil {
		t.Fatalf("BuildPlan: %v", err)
	}
	return pl
}

func TestBuildPlanSplitsConjuncts(t *testing.T) {
	q := mustParse(t, `SELECT ticket_id FROM t WHERE category = 'billing' AND LLM('help?', request) = 'Yes' AND priority <> '2'`)
	pl := mustPlan(t, q, true)
	if pl.TablePushed[0] == nil || pl.Residual == nil {
		t.Fatalf("plan = %+v", pl)
	}
	if got := len(conjuncts(pl.TablePushed[0])); got != 2 {
		t.Errorf("pushed conjuncts = %d, want 2 (%s)", got, pl.TablePushed[0])
	}
	if containsLLM(pl.TablePushed[0]) {
		t.Errorf("LLM call leaked into pushed predicate: %s", pl.TablePushed[0])
	}
	if !containsLLM(pl.Residual) {
		t.Errorf("residual lost its LLM comparison: %s", pl.Residual)
	}
	if len(pl.PreStages) != 1 || len(pl.PostStages) != 0 {
		t.Errorf("stages = %d pre, %d post, want 1/0", len(pl.PreStages), len(pl.PostStages))
	}
	if pl.PreStages[0].Type != query.Filter || pl.PreStages[0].Name() != "sql-where-1" {
		t.Errorf("stage = %+v", pl.PreStages[0])
	}
}

func TestBuildPlanNaiveKeepsWhereWhole(t *testing.T) {
	q := mustParse(t, `SELECT a FROM t WHERE a = 'x' AND LLM('p', b) = 'Yes'`)
	pl := mustPlan(t, q, false)
	if pl.Pushed != nil || pl.TablePushed[0] != nil {
		t.Errorf("naive plan pushed a predicate: %+v", pl)
	}
	if !reflect.DeepEqual(pl.Residual, q.Where) {
		t.Errorf("naive residual = %s, want the full WHERE", pl.Residual)
	}
}

func TestBuildPlanOrBlocksPushdown(t *testing.T) {
	// A plain comparison OR-joined with an LLM comparison cannot run early.
	q := mustParse(t, `SELECT a FROM t WHERE a = 'x' OR LLM('p', b) = 'Yes'`)
	pl := mustPlan(t, q, true)
	if pl.Pushed != nil || pl.TablePushed[0] != nil {
		t.Errorf("unsound pushdown through OR: %+v", pl)
	}
	if pl.Residual == nil {
		t.Error("residual missing")
	}
}

func TestBuildPlanDedupsRepeatedCalls(t *testing.T) {
	q := mustParse(t, `SELECT LLM('p', a) AS x, LLM('p', a) AS y FROM t WHERE LLM('p', a) = 'Yes' AND LLM('q', a) = 'Yes'`)
	planned := mustPlan(t, q, true)
	if got := planned.Stages(); got != 2 {
		t.Errorf("planned stages = %d, want 2 (one per distinct call)", got)
	}
	naive := mustPlan(t, q, false)
	if got := naive.Stages(); got != 4 {
		t.Errorf("naive stages = %d, want 4 (one per occurrence)", got)
	}
	// The call shared between WHERE and SELECT keeps filter semantics.
	for _, st := range planned.PreStages {
		if st.Call.Prompt == "p" && st.Type != query.Filter {
			t.Errorf("shared call type = %s, want filter", st.Type)
		}
	}
	if len(planned.PostStages) != 0 {
		t.Errorf("post stages = %d, want 0 (both calls already run for WHERE)", len(planned.PostStages))
	}
}

func TestBuildPlanStageNumbering(t *testing.T) {
	// Several filter stages per statement must get distinct names.
	q := mustParse(t, `SELECT a FROM t WHERE LLM('p', a) = 'Yes' AND LLM('q', b) = 'Yes'`)
	pl := mustPlan(t, q, true)
	if len(pl.PreStages) != 2 {
		t.Fatalf("stages = %d", len(pl.PreStages))
	}
	if pl.PreStages[0].Name() == pl.PreStages[1].Name() {
		t.Errorf("duplicate stage name %q", pl.PreStages[0].Name())
	}
	if pl.PreStages[0].Name() != "sql-where-1" || pl.PreStages[1].Name() != "sql-where-2" {
		t.Errorf("names = %q, %q", pl.PreStages[0].Name(), pl.PreStages[1].Name())
	}
}

// --- executor: pushdown and dedup win measurably ------------------------------

func TestExecPushdownFewerCallsSameRows(t *testing.T) {
	sql := `SELECT ticket_id FROM tickets WHERE category = 'billing' AND LLM('Did the response help?', support_response) = 'Yes'`
	db := NewDB()
	db.Register("tickets", catTicketsTable())

	planned, err := db.Exec(sql, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	naiveCfg := execCfg()
	naiveCfg.Naive = true
	naive, err := db.Exec(sql, naiveCfg)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(planned.Rows, naive.Rows) {
		t.Fatalf("plans disagree:\nplanned %v\nnaive   %v", planned.Rows, naive.Rows)
	}
	if planned.LLMCalls >= naive.LLMCalls {
		t.Errorf("pushdown did not reduce calls: planned %d, naive %d", planned.LLMCalls, naive.LLMCalls)
	}
	if planned.LLMCalls != 24 || naive.LLMCalls != 40 {
		t.Errorf("calls = %d planned / %d naive, want 24/40", planned.LLMCalls, naive.LLMCalls)
	}
	if planned.JCT >= naive.JCT {
		t.Errorf("pushdown did not reduce JCT: planned %.1f, naive %.1f", planned.JCT, naive.JCT)
	}
}

func TestExecDedupFewerCallsSameRows(t *testing.T) {
	sql := `SELECT ticket_id, LLM('Summarize the request', request) AS a, LLM('Summarize the request', request) AS b FROM tickets`
	db := NewDB()
	db.Register("tickets", catTicketsTable())

	planned, err := db.Exec(sql, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	naiveCfg := execCfg()
	naiveCfg.Naive = true
	naive, err := db.Exec(sql, naiveCfg)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(planned.Rows, naive.Rows) {
		t.Fatalf("plans disagree:\nplanned %v\nnaive   %v", planned.Rows, naive.Rows)
	}
	if planned.Stages != 1 || naive.Stages != 2 {
		t.Errorf("stages = %d planned / %d naive, want 1/2", planned.Stages, naive.Stages)
	}
	if planned.LLMCalls != 40 || naive.LLMCalls != 80 {
		t.Errorf("calls = %d planned / %d naive, want 40/80", planned.LLMCalls, naive.LLMCalls)
	}
	for i, row := range planned.Rows {
		if row[1] != row[2] {
			t.Fatalf("row %d: deduped columns disagree: %q vs %q", i, row[1], row[2])
		}
	}
}

func TestExecSharedWhereSelectCallRunsOnce(t *testing.T) {
	// The same call filters in WHERE and projects in SELECT: one stage, and
	// every surviving row's projected value is the literal that passed.
	sql := `SELECT ticket_id, LLM('Did the response help?', support_response) AS verdict FROM tickets WHERE LLM('Did the response help?', support_response) = 'Yes'`
	db := NewDB()
	db.Register("tickets", catTicketsTable())
	res, err := db.Exec(sql, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages != 1 {
		t.Errorf("stages = %d, want 1", res.Stages)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows survived")
	}
	for i, row := range res.Rows {
		if row[1] != "Yes" {
			t.Errorf("row %d: verdict = %q, want the passing literal", i, row[1])
		}
	}
}

func TestExecSameCallMultipleLiterals(t *testing.T) {
	// Two comparisons of one call against different literals share a single
	// stage whose synthetic answer alphabet covers both branches, so each
	// branch is reachable.
	db := NewDB()
	db.Register("tickets", catTicketsTable())
	res, err := db.Exec(`SELECT ticket_id, LLM('Mood?', request) AS mood FROM tickets WHERE LLM('Mood?', request) = 'happy' OR LLM('Mood?', request) = 'sad'`, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages != 1 {
		t.Errorf("stages = %d, want 1", res.Stages)
	}
	if len(res.Rows) == 0 || len(res.Rows) == 40 {
		t.Fatalf("rows = %d, want a strict subset", len(res.Rows))
	}
	seen := map[string]int{}
	for _, row := range res.Rows {
		seen[row[1]]++
	}
	if seen["happy"] == 0 || seen["sad"] == 0 {
		t.Errorf("one OR branch unreachable: moods = %v", seen)
	}
	if len(seen) != 2 {
		t.Errorf("unexpected moods passed the filter: %v", seen)
	}

	// One answer per row can never equal two different literals at once.
	and, err := db.Exec(`SELECT ticket_id FROM tickets WHERE LLM('Mood?', request) = 'happy' AND LLM('Mood?', request) = 'sad'`, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(and.Rows) != 0 {
		t.Errorf("contradictory AND matched %d rows", len(and.Rows))
	}
}

func TestExecAggregatedCallSharedWithWhere(t *testing.T) {
	// Aggregate use outranks the WHERE comparison when classifying a shared
	// call: the one deduplicated stage emits numeric scores, so filtering on
	// a score and averaging the survivors is meaningful.
	db := NewDB()
	db.Register("tickets", catTicketsTable())
	res, err := db.Exec(`SELECT COUNT(*) AS n, AVG(LLM('Rate the urgency 1-5', request)) AS score FROM tickets WHERE LLM('Rate the urgency 1-5', request) = '5'`, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages != 1 {
		t.Errorf("stages = %d, want one shared aggregation stage", res.Stages)
	}
	n, err := strconv.Atoi(res.Rows[0][0])
	if err != nil || n == 0 || n == 40 {
		t.Fatalf("n = %q, want a strict subset of rows rated 5", res.Rows[0][0])
	}
	if res.Rows[0][1] != "5.000" {
		t.Errorf("score = %q, want 5.000 (all survivors were rated 5)", res.Rows[0][1])
	}
}

func TestBuildPlanRejectsNonNumericEqualityOnAggregatedCall(t *testing.T) {
	q := mustParse(t, `SELECT AVG(LLM('Rate', a)) FROM t WHERE LLM('Rate', a) = 'Yes'`)
	if _, err := BuildPlan(q, nil, true); err == nil {
		t.Error("unsatisfiable aggregated equality accepted")
	}
	if _, err := BuildPlan(q, nil, false); err == nil {
		t.Error("naive plan accepted the unsatisfiable statement")
	}
	// Negated form is trivially true and must stay legal, as must numeric
	// equality (quoted or bare).
	for _, src := range []string{
		`SELECT AVG(LLM('Rate', a)) FROM t WHERE LLM('Rate', a) <> 'N/A'`,
		`SELECT AVG(LLM('Rate', a)) FROM t WHERE LLM('Rate', a) = '5'`,
		`SELECT AVG(LLM('Rate', a)) FROM t WHERE LLM('Rate', a) = 5`,
	} {
		if _, err := BuildPlan(mustParse(t, src), nil, true); err != nil {
			t.Errorf("BuildPlan(%q): %v", src, err)
		}
	}
}

func TestLLMCallKeyInjective(t *testing.T) {
	cases := []LLMCall{
		{Prompt: "p", Fields: cols("a", "b")},
		{Prompt: "p", Fields: cols("a")},
		{Prompt: "p", Fields: cols("ab")},
		{Prompt: "p", Fields: cols("*")},                               // column literally named *
		{Prompt: "p", AllFields: true},                                 // LLM('p', *)
		{Prompt: "p", StarOf: []string{"a"}},                           // LLM('p', a.*)
		{Prompt: "p\x00a", Fields: cols("b")},                          // NUL in prompt
		{Prompt: "p", Fields: cols("a\x00b")},                          // NUL in field
		{Prompt: "p;1:a", Fields: cols("b")},                           // delimiter chars in prompt
		{Prompt: "p", Fields: []ColRef{{Qualifier: "a", Column: "b"}}}, // qualified field
		{Prompt: "p", Fields: cols("a.b")},                             // dot folded into the name
	}
	seen := map[string]LLMCall{}
	for _, c := range cases {
		k := c.Key()
		if prev, ok := seen[k]; ok {
			t.Errorf("key collision %q between %#v and %#v", k, prev, c)
		}
		seen[k] = c
	}
}

func TestExecQuotedNumericLiteralMatchesScore(t *testing.T) {
	// '5.0' (a string literal that parses as a number) must match the
	// aggregation stage's integer score outputs numerically.
	db := NewDB()
	db.Register("tickets", catTicketsTable())
	quoted, err := db.Exec(`SELECT COUNT(*) AS n, AVG(LLM('Rate the urgency 1-5', request)) AS s FROM tickets WHERE LLM('Rate the urgency 1-5', request) = '5.0'`, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	bare, err := db.Exec(`SELECT COUNT(*) AS n, AVG(LLM('Rate the urgency 1-5', request)) AS s FROM tickets WHERE LLM('Rate the urgency 1-5', request) = 5`, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	if quoted.Rows[0][0] == "0" {
		t.Error("quoted numeric literal matched nothing")
	}
	if !reflect.DeepEqual(quoted.Rows, bare.Rows) {
		t.Errorf("quoted %v != bare %v", quoted.Rows, bare.Rows)
	}
}

func TestFilterChoicesComplementAvoidsLiterals(t *testing.T) {
	tbl := table.New("a")
	for i := 0; i < 8; i++ {
		tbl.MustAppendRow("row " + strconv.Itoa(i))
	}
	choices, _ := filterChoices(tbl, rowHashes(tbl), "ok?", []string{"Yes", "NOT Yes"})
	seen := map[string]bool{}
	for _, c := range choices {
		if seen[c] {
			t.Fatalf("duplicate choice %q in %v", c, choices)
		}
		seen[c] = true
	}
	if len(choices) != 3 {
		t.Errorf("choices = %v, want the two literals plus a distinct complement", choices)
	}
}

func TestSyntheticTruthVariesByPrompt(t *testing.T) {
	// Two different questions over the same rows must draw independent
	// synthetic truths, or opposite predicates become perfectly correlated.
	mk := func() *table.Table {
		tbl := table.New("a")
		for i := 0; i < 16; i++ {
			tbl.MustAppendRow("row " + strconv.Itoa(i))
		}
		return tbl
	}
	pos, neg := mk(), mk()
	filterChoices(pos, rowHashes(pos), "Positive sentiment?", []string{"Yes"})
	filterChoices(neg, rowHashes(neg), "Negative sentiment?", []string{"Yes"})
	a, _ := pos.Hidden("__sql_truth")
	b, _ := neg.Hidden("__sql_truth")
	if reflect.DeepEqual(a, b) {
		t.Error("synthetic truths identical across different prompts")
	}
}

func TestValueLessTotalOrderWithNaN(t *testing.T) {
	// "NaN" parses as a float but must order as a plain string, or MIN/MAX
	// and ORDER BY become input-order dependent.
	a := aggregate(AggMin, false, []string{"NaN", "5", "1"}, 3)
	b := aggregate(AggMin, false, []string{"1", "NaN", "5"}, 3)
	if a != b || a != "1" {
		t.Errorf("MIN order-dependent: %q vs %q, want 1", a, b)
	}
	if !valueLess("5", "NaN") || valueLess("NaN", "5") {
		t.Error("numbers must order before the non-finite string NaN")
	}
}

func TestExecPlainWhereNeedsNoLLM(t *testing.T) {
	db := NewDB()
	db.Register("tickets", catTicketsTable())
	res, err := db.Exec(`SELECT ticket_id FROM tickets WHERE category = 'billing' AND NOT ticket_id = 'T-1000'`, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.LLMCalls != 0 || res.Stages != 0 {
		t.Errorf("plain WHERE ran %d LLM calls over %d stages", res.LLMCalls, res.Stages)
	}
	if len(res.Rows) != 23 {
		t.Errorf("rows = %d, want 23", len(res.Rows))
	}
}

// --- executor: new operators --------------------------------------------------

func TestExecGroupByCount(t *testing.T) {
	db := NewDB()
	db.Register("tickets", catTicketsTable())
	res, err := db.Exec(`SELECT category, COUNT(*) AS n FROM tickets GROUP BY category ORDER BY n DESC`, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"billing", "24"}, {"refund", "16"}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows = %v, want %v", res.Rows, want)
	}
	if res.LLMCalls != 0 {
		t.Errorf("plain GROUP BY ran %d LLM calls", res.LLMCalls)
	}
}

func TestExecGroupByWithLLMAggregate(t *testing.T) {
	db := NewDB()
	db.Register("tickets", catTicketsTable())
	res, err := db.Exec(`SELECT category, AVG(LLM('Rate 1-5', request)) AS score, COUNT(*) AS n FROM tickets GROUP BY category`, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages != 1 {
		t.Errorf("stages = %d, want one shared aggregation stage", res.Stages)
	}
	if len(res.Rows) != 2 || len(res.Columns) != 3 {
		t.Fatalf("shape = %v %v", res.Columns, res.Rows)
	}
	for _, row := range res.Rows {
		score, err := strconv.ParseFloat(row[1], 64)
		if err != nil || score < 1 || score > 5 {
			t.Errorf("group %q: score = %q", row[0], row[1])
		}
	}
}

func TestExecPlainAggregates(t *testing.T) {
	db := NewDB()
	db.Register("tickets", catTicketsTable())
	res, err := db.Exec(`SELECT COUNT(*), SUM(priority), MIN(ticket_id), MAX(ticket_id), AVG(priority) FROM tickets`, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// priorities cycle 0,1,2 over 40 rows: 14 zeros, 13 ones, 13 twos.
	want := []string{"40", "39.000", "T-1000", "T-1039", "0.975"}
	if !reflect.DeepEqual(res.Rows[0], want) {
		t.Errorf("aggregates = %v, want %v", res.Rows[0], want)
	}
}

func TestExecNumericPredicate(t *testing.T) {
	db := NewDB()
	db.Register("tickets", catTicketsTable())
	res, err := db.Exec(`SELECT ticket_id FROM tickets WHERE priority = 2`, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 13 {
		t.Errorf("rows = %d, want 13", len(res.Rows))
	}
	neg, err := db.Exec(`SELECT ticket_id FROM tickets WHERE priority <> 2`, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows)+len(neg.Rows) != 40 {
		t.Errorf("complement broken: %d + %d != 40", len(res.Rows), len(neg.Rows))
	}
}

func TestExecNotOrSemantics(t *testing.T) {
	db := NewDB()
	db.Register("tickets", catTicketsTable())
	res, err := db.Exec(`SELECT ticket_id FROM tickets WHERE NOT (category = 'billing' OR category = 'refund')`, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("rows = %d, want 0", len(res.Rows))
	}
}

func TestExecOrderByLimitRowwise(t *testing.T) {
	db := NewDB()
	db.Register("tickets", catTicketsTable())
	res, err := db.Exec(`SELECT ticket_id FROM tickets ORDER BY ticket_id DESC LIMIT 5`, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 || res.Rows[0][0] != "T-1039" || res.Rows[4][0] != "T-1035" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestExecOrderByNumericColumn(t *testing.T) {
	db := NewDB()
	db.Register("tickets", catTicketsTable())
	res, err := db.Exec(`SELECT priority, ticket_id FROM tickets ORDER BY priority DESC LIMIT 1`, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "2" {
		t.Errorf("top priority = %q, want 2", res.Rows[0][0])
	}
}

func TestExecAggregateOverEmptyRelation(t *testing.T) {
	db := NewDB()
	db.Register("tickets", catTicketsTable())
	res, err := db.Exec(`SELECT COUNT(*) AS n FROM tickets WHERE category = 'nope'`, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "0" {
		t.Errorf("rows = %v, want one row with 0", res.Rows)
	}
	// With GROUP BY there is nothing to group, so no rows at all.
	res, err = db.Exec(`SELECT category, COUNT(*) FROM tickets WHERE category = 'nope' GROUP BY category`, execCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("grouped rows = %v, want none", res.Rows)
	}
}

func TestExecValidationErrors(t *testing.T) {
	db := NewDB()
	db.Register("t", catTicketsTable())
	bad := []string{
		`SELECT * FROM t GROUP BY category`,                        // star with grouping
		`SELECT ticket_id FROM t GROUP BY category`,                // ungrouped column
		`SELECT ticket_id, COUNT(*) FROM t`,                        // mixed without GROUP BY
		`SELECT LLM('p', request) FROM t GROUP BY category`,        // bare LLM with grouping
		`SELECT category FROM t GROUP BY nope`,                     // unknown group column
		`SELECT SUM(nope) FROM t`,                                  // unknown aggregate column
		`SELECT category FROM t WHERE nope = 'x'`,                  // unknown WHERE column
		`SELECT category FROM t WHERE NOT (a = 'x' OR nope = 'y')`, // nested unknown column
		`SELECT category FROM t ORDER BY nope`,                     // unknown ORDER BY column
	}
	for _, src := range bad {
		if _, err := db.Exec(src, execCfg()); err == nil {
			t.Errorf("Exec(%q) succeeded", src)
		}
	}
}

// Stages counts the LLM invocations the plan will run.
func (p *Plan) Stages() int { return len(p.PreStages) + len(p.PostStages) }
