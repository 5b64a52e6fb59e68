package sqlfront

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"repro/internal/table"
)

// The reference WHERE evaluator: the per-row interpreter the compiled
// predicate (compilePred, literal) replaced, kept verbatim — down to parsing
// both sides of every comparison with strconv — so the compiled form, on
// both its per-distinct-value and its per-row path, can be held to it.

func refParseNum(s string) (float64, bool) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, false
	}
	return f, true
}

func refValueLess(a, b string) bool {
	af, okA := refParseNum(a)
	bf, okB := refParseNum(b)
	switch {
	case okA && okB:
		return af < bf
	case okA:
		return true
	case okB:
		return false
	}
	return a < b
}

func refMatches(c *Compare, actual string) bool {
	switch c.Op {
	case OpLt:
		return refValueLess(actual, c.Literal)
	case OpLe:
		return !refValueLess(c.Literal, actual)
	case OpGt:
		return refValueLess(c.Literal, actual)
	case OpGe:
		return !refValueLess(actual, c.Literal)
	}
	eq := actual == c.Literal
	if !eq {
		if av, okA := refParseNum(actual); okA {
			if lv, okL := refParseNum(c.Literal); okL {
				eq = av == lv
			}
		}
	}
	return eq != (c.Op == OpNeq)
}

func refEvalExpr(e Expr, row int, leaf map[*Compare]func(int) string) bool {
	switch n := e.(type) {
	case *BinaryExpr:
		left := refEvalExpr(n.Left, row, leaf)
		if (n.Op == "AND" && !left) || (n.Op == "OR" && left) {
			return left
		}
		return refEvalExpr(n.Right, row, leaf)
	case *NotExpr:
		return !refEvalExpr(n.Inner, row, leaf)
	case *Compare:
		return refMatches(n, leaf[n](row))
	}
	return false
}

// refPassingRows is passingRows as it was: every leaf resolved into a map,
// the tree walked per row. Every leaf of e must resolve.
func refPassingRows(t *table.Table, e Expr, outputs map[string][]string) []int {
	leaf := map[*Compare]func(int) string{}
	walkCompares(e, func(c *Compare) {
		if c.LLM != nil {
			outs := outputs[c.LLM.Key()]
			leaf[c] = func(row int) string {
				if row < len(outs) {
					return outs[row]
				}
				return ""
			}
			return
		}
		ci, _ := t.ColIndex(c.Col.Column)
		leaf[c] = func(row int) string { return t.Cell(row, ci) }
	})
	var passing []int
	for i := 0; i < t.NumRows(); i++ {
		if refEvalExpr(e, i, leaf) {
			passing = append(passing, i)
		}
	}
	return passing
}

// whereValues are the cells and literals the differential tests draw from:
// numbers spelled several ways (5 and 5.0, -0 and 0, 1e3 and 1000, a hex
// float and its decimal, +.5), strings ParseFloat reads as non-finite, and
// strings that only look numeric.
var whereValues = []string{
	"5", "5.0", "-0", "0", "1e3", "1000", "0x1p-2", "0.25", "+.5", ".5",
	"NaN", "Inf", "-Inf", "+Inf", "", " 5", "5 ", "1_000", ".", "-",
	"abc", "Yes", "No", "7", "42", "4.5", "-7",
}

func randWhereValue(r *rand.Rand) string { return whereValues[r.Intn(len(whereValues))] }

// randWhereTable fills cols with values drawn from a per-column subset of
// whereValues, so columns repeat values (a dictionary with fewer ids than
// rows) and differ in which ones.
func randWhereTable(r *rand.Rand, rows int, cols ...string) *table.Table {
	t := table.New(cols...)
	pools := make([][]string, len(cols))
	for c := range pools {
		for n := 1 + r.Intn(8); n > 0; n-- {
			pools[c] = append(pools[c], randWhereValue(r))
		}
	}
	for i := 0; i < rows; i++ {
		row := make([]string, len(cols))
		for c, pool := range pools {
			row[c] = pool[r.Intn(len(pool))]
		}
		t.MustAppendRow(row...)
	}
	return t
}

// plainLeaf draws comparison leaves over the given column references with
// property_test.go's operators and a literal from whereValues.
func plainLeaf(refs []ColRef) func(*rand.Rand, []string) *Compare {
	return func(r *rand.Rand, _ []string) *Compare {
		return &Compare{Col: refs[r.Intn(len(refs))], Op: propOps[r.Intn(len(propOps))], Literal: randWhereValue(r)}
	}
}

// TestCompiledWhereMatchesReference: random boolean trees (property_test.go's
// randExpr) over plain-column and LLM-output leaves, on random tables full of
// numeric edge cells, select the same rows compiled as the reference selects
// them — per distinct value through the table's dictionary and per row.
func TestCompiledWhereMatchesReference(t *testing.T) {
	calls := []LLMCall{{Prompt: "p", Fields: cols("a")}, {Prompt: "q", Fields: cols("b")}}
	refs := cols("a", "b", "c")
	for seed := int64(0); seed < 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		tbl := randWhereTable(r, n, "a", "b", "c")
		// Outputs one short of the relation on some statements: a missing
		// output compares as "".
		outputs := map[string][]string{}
		for _, c := range calls {
			outs := make([]string, n-r.Intn(2))
			for i := range outs {
				outs[i] = randWhereValue(r)
			}
			outputs[c.Key()] = outs
		}
		plain := plainLeaf(refs)
		leaf := func(r *rand.Rand, quals []string) *Compare {
			c := plain(r, quals)
			if r.Intn(3) == 0 {
				c.LLM, c.Col = &calls[r.Intn(len(calls))], ColRef{}
			}
			return c
		}
		e := randExpr(r, 4, nil, leaf)
		want := refPassingRows(tbl, e, outputs)
		for _, dict := range []*table.Dictionary{nil, tbl.Dictionary()} {
			got, err := passingRows(tbl, e, outputs, tbl.ColIndex, dict)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, e, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d (dictionary %t): WHERE %s\n got rows %v\nwant rows %v\ntable:\n%s", seed, dict != nil, e, got, want, tbl)
			}
		}
	}
}

// TestWhereStatementsMatchReference runs random plain WHEREs as whole
// statements, planned and naive: over one registered table (every conjunct
// pushed down, compared per distinct value) and over a join (single-table
// conjuncts pushed below it per distinct value, spanning ones compared per
// row after it). Each must keep exactly the rows the reference keeps on the
// unfiltered relation, in its order.
func TestWhereStatementsMatchReference(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := NewDB()
		db.Register("l", randWhereTable(r, 1+r.Intn(30), "k", "a", "b"))
		db.Register("r", randWhereTable(r, 1+r.Intn(30), "k", "c", "a"))
		for _, st := range []struct {
			from string
			refs []ColRef
		}{
			{"l", cols("k", "a", "b")},
			{"l JOIN r ON l.k = r.k", []ColRef{
				{Qualifier: "l", Column: "a"}, {Qualifier: "l", Column: "b"},
				{Qualifier: "r", Column: "c"}, {Qualifier: "r", Column: "a"}, {Qualifier: "r", Column: "k"}}},
		} {
			sql := "SELECT * FROM " + st.from + " WHERE " + randExpr(r, 4, nil, plainLeaf(st.refs)).String()
			q, err := Parse(sql)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, sql, err)
			}
			ps, err := db.prepareParsed(q)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, sql, err)
			}
			bases := make([]*table.Table, len(ps.sc.tables))
			for i, tab := range ps.sc.tables {
				bases[i] = tab.tbl
			}
			rel := ps.sc.joinAll(bases, ps.joins)
			var want [][]string
			for _, row := range refPassingRows(rel, ps.q.Where, nil) {
				want = append(want, rel.Row(row))
			}
			for _, naive := range []bool{false, true} {
				res, err := db.Exec(sql, ExecConfig{Naive: naive})
				if err != nil {
					t.Fatalf("seed %d: %s: %v", seed, sql, err)
				}
				if !reflect.DeepEqual(res.Rows, want) {
					t.Fatalf("seed %d (naive %t): %s\n got %q\nwant %q", seed, naive, sql, res.Rows, want)
				}
			}
		}
	}
}

// TestWhereConcurrentFirstDictionary: statements racing to the first WHERE
// over a freshly registered table share the dictionary whichever of them
// builds it, and each keeps exactly its reference rows.
func TestWhereConcurrentFirstDictionary(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	tbl := randWhereTable(r, 200, "a", "b")
	db := NewDB()
	db.Register("t", tbl)
	const statements = 8
	sqls := make([]string, statements)
	wants := make([][][]string, statements)
	for i := range sqls {
		e := randExpr(r, 3, nil, plainLeaf(cols("a", "b")))
		sqls[i] = "SELECT * FROM t WHERE " + e.String()
		for _, row := range refPassingRows(tbl, e, nil) {
			wants[i] = append(wants[i], tbl.Row(row))
		}
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range sqls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, err := db.Exec(sqls[i], ExecConfig{})
			if err != nil {
				t.Errorf("%s: %v", sqls[i], err)
				return
			}
			if !reflect.DeepEqual(res.Rows, wants[i]) {
				t.Errorf("%s\n got %q\nwant %q", sqls[i], res.Rows, wants[i])
			}
		}()
	}
	close(start)
	wg.Wait()
}

// TestParseNumMatchesStrconv: parseNum's first-byte rejection changes no
// answer — it accepts exactly the strings ParseFloat reads as finite.
func TestParseNumMatchesStrconv(t *testing.T) {
	for _, s := range append(whereValues, "1", "-1.5e-3", "+0", "0x10", "0X1P4", "Infinity", "-nan", "\t1", "1\n", "e5", "_1") {
		gotN, gotOK := parseNum(s)
		wantN, wantOK := refParseNum(s)
		if gotOK != wantOK || gotN != wantN {
			t.Errorf("parseNum(%q) = %v, %t; strconv reads %v, %t", s, gotN, gotOK, wantN, wantOK)
		}
	}
}

// FuzzWhereMatchesReference holds parseNum to strconv on every input, and
// one comparison — alone, negated, and under AND/OR with a second operator on
// the same literal — to the reference on a four-row table of the inputs,
// compiled per distinct value and per row. CI runs it briefly on every push
// (-fuzztime=10s); longer local runs: go test -fuzz=FuzzWhereMatchesReference ./internal/sqlfront
func FuzzWhereMatchesReference(f *testing.F) {
	for i, v := range whereValues {
		f.Add(v, whereValues[(i+1)%len(whereValues)], whereValues[(i+7)%len(whereValues)], uint8(i))
	}
	f.Fuzz(func(t *testing.T, x, y, lit string, op uint8) {
		for _, s := range []string{x, y, lit} {
			gotN, gotOK := parseNum(s)
			if wantN, wantOK := refParseNum(s); gotOK != wantOK || gotN != wantN {
				t.Fatalf("parseNum(%q) = %v, %t; strconv reads %v, %t", s, gotN, gotOK, wantN, wantOK)
			}
		}
		tbl := table.New("v")
		for _, cell := range []string{x, y, x, lit} {
			tbl.MustAppendRow(cell)
		}
		a := &Compare{Col: ColRef{Column: "v"}, Op: propOps[int(op)%len(propOps)], Literal: lit}
		b := &Compare{Col: ColRef{Column: "v"}, Op: propOps[int(op/8)%len(propOps)], Literal: lit}
		for _, e := range []Expr{a, &NotExpr{Inner: a}, &BinaryExpr{Op: "AND", Left: a, Right: b}, &BinaryExpr{Op: "OR", Left: b, Right: a}} {
			want := refPassingRows(tbl, e, nil)
			for _, dict := range []*table.Dictionary{nil, tbl.Dictionary()} {
				got, err := passingRows(tbl, e, nil, tbl.ColIndex, dict)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("WHERE %s over %q (dictionary %t): rows %v, %v; reference %v", e, []string{x, y, x, lit}, dict != nil, got, err, want)
				}
			}
		}
	})
}
