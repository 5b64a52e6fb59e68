package query

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/table"
	"repro/internal/tokenizer"
)

// wholeRowTokens is the textual spec PromptTokens must reproduce: tok
// walking the prefix, then every row's RowJSON, whole.
func wholeRowTokens(tok *tokenizer.Tokenizer, userPrompt string, sched *core.Schedule) [][]tokenizer.Token {
	prefix := tok.Encode(PromptPrefix(userPrompt))
	out := make([][]tokenizer.Token, len(sched.Rows))
	for i, row := range sched.Rows {
		out[i] = slices.Concat(prefix, tok.Encode(RowJSON(row.Cells)))
	}
	return out
}

// checkPromptTokens holds the piece-assembled streams to the whole-row walk
// token for token, ids included — with the stage's own tokenizer against a
// fresh one's walk, and with a fresh cache and a cache so small every piece
// is evicted between uses against a walk on the tokenizer every cache
// shares.
func checkPromptTokens(t *testing.T, userPrompt string, tbl *table.Table, sched *core.Schedule) {
	t.Helper()
	if err := core.Verify(tbl, sched); err != nil {
		t.Fatalf("test schedule is not a schedule of its table: %v", err)
	}
	for name, cache := range map[string]*PromptCache{"stage tokenizer": nil, "cache": NewPromptCache(0), "evicting cache": NewPromptCache(1)} {
		got := PromptTokens(userPrompt, tbl, sched, cache)
		tok := tokenizer.New()
		if cache != nil {
			tok = cache.tok
		}
		want := wholeRowTokens(tok, userPrompt, sched)
		if len(got) != len(want) {
			t.Fatalf("%s: %d prompts, want %d", name, len(got), len(want))
		}
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("%s: row %d %q\n got %v\nwant %v", name, i, RowJSON(sched.Rows[i].Cells), got[i], want[i])
			}
			// Rows are windows of a shared slab: appending to one must not
			// reach into the next.
			if cap(got[i]) != len(got[i]) {
				t.Fatalf("%s: row %d has %d tokens but capacity %d", name, i, len(got[i]), cap(got[i]))
			}
		}
	}
}

// awkwardStrings are the cell contents that could break the piece
// decomposition if a token ever spanned a piece boundary.
var awkwardStrings = []string{
	"", " ", "  ", "a", "plain words here", " leading", "trailing ", "double  space",
	`has "quotes"`, `"`, `\`, "new\nline\ttab", ", ", "}", "{", `", "`, `": "`, "x, y}", "},{",
	"longerthansevenbytes", "exactly7", "a_b_c_d_e_f_g_h", "héllo wörld", "日本語", "\xff\xfe", "\x00",
	"12345678901234567890", "mixed 42 and, punctuation! ",
}

// shuffledSchedule schedules every row of tbl once, rows and each row's
// fields in random order.
func shuffledSchedule(r *rand.Rand, tbl *table.Table) *core.Schedule {
	sched := &core.Schedule{}
	for _, src := range r.Perm(tbl.NumRows()) {
		cells := make([]core.Cell, tbl.NumCols())
		for k, c := range r.Perm(tbl.NumCols()) {
			cells[k] = core.Cell{Field: tbl.Columns()[c], Value: tbl.Cell(src, c)}
		}
		sched.Rows = append(sched.Rows, core.Row{Source: src, Cells: cells})
	}
	return sched
}

func TestPromptTokensMatchWholeRowWalk(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pick := func() string {
		if r.Intn(4) == 0 {
			return awkwardStrings[r.Intn(len(awkwardStrings))] + awkwardStrings[r.Intn(len(awkwardStrings))]
		}
		return awkwardStrings[r.Intn(len(awkwardStrings))]
	}
	for trial := 0; trial < 200; trial++ {
		var fields []string
		for n := r.Intn(5); len(fields) < n; {
			if f := pick(); f != "" && !slices.Contains(fields, f) {
				fields = append(fields, f)
			}
		}
		tbl := table.New(fields...)
		for i, n := 0, r.Intn(8); i < n; i++ {
			row := make([]string, len(fields))
			for k := range row {
				row[k] = pick()
			}
			tbl.MustAppendRow(row...)
		}
		userPrompt := pick()
		checkPromptTokens(t, userPrompt, tbl, shuffledSchedule(r, tbl))
		checkPromptTokens(t, userPrompt, tbl, core.Original(tbl))
	}
}

// TestPromptTokensOnSolvedSchedule runs the equivalence over a real GGR
// schedule, where per-row field orders differ and values repeat, long enough
// to span several token slabs.
func TestPromptTokensOnSolvedSchedule(t *testing.T) {
	tbl := cacheTestTable(2*promptSlabRows+60, "")
	sched := core.GGR(tbl, core.DefaultGGROptions(tokenizer.Count)).Schedule
	checkPromptTokens(t, "Summarize the text.", tbl, sched)
}

// TestPromptTokensOnDatagenTables runs the equivalence over every generated
// dataset under each kind of schedule the executor and the benchmarks build.
func TestPromptTokensOnDatagenTables(t *testing.T) {
	opt := datagen.Options{Scale: 0.01, Seed: 3}
	tables := map[string]*table.Table{}
	for _, name := range datagen.RelationalNames {
		d, err := datagen.RelationalByName(name, opt)
		if err != nil {
			t.Fatal(err)
		}
		tables[name] = d.Table
	}
	for _, name := range datagen.RAGNames {
		d, err := datagen.RAGByName(name, opt)
		if err != nil {
			t.Fatal(err)
		}
		if tables[name], err = BuildRAGTable(d); err != nil {
			t.Fatal(err)
		}
	}
	for name, tbl := range tables {
		t.Run(name, func(t *testing.T) {
			reversed := slices.Clone(tbl.Columns())
			slices.Reverse(reversed)
			fixed, err := core.FixedOrder(tbl, reversed)
			if err != nil {
				t.Fatal(err)
			}
			for _, sched := range []*core.Schedule{
				core.GGR(tbl, core.DefaultGGROptions(tokenizer.Count)).Schedule,
				core.Original(tbl),
				fixed,
			} {
				checkPromptTokens(t, "Which of these matter?", tbl, sched)
			}
		})
	}
}

// TestPromptTokensFollowTableChanges: a sub-table codes its own rows, and a
// table whose rows change after its dictionary was built codes them anew.
func TestPromptTokensFollowTableChanges(t *testing.T) {
	tbl := cacheTestTable(50, "")
	checkPromptTokens(t, "Q?", tbl, core.Original(tbl))

	sub := tbl.FilterRows([]int{49, 3, 3, 17, 0, 25})
	checkPromptTokens(t, "Q?", sub, core.GGR(sub, core.DefaultGGROptions(tokenizer.Count)).Schedule)

	tbl.MustAppendRow("id-new", "grp-9", "a payload no earlier row holds")
	tbl.MustAppendRow("id-000", "grp-0", "some longer payload text 0 about topic 0")
	checkPromptTokens(t, "Q?", tbl, core.Original(tbl))
	if err := tbl.SortRowsLex([]string{"text", "id"}); err != nil {
		t.Fatal(err)
	}
	checkPromptTokens(t, "Q?", tbl, core.GGR(tbl, core.DefaultGGROptions(tokenizer.Count)).Schedule)
	checkPromptTokens(t, "Q?", tbl, core.Original(tbl))
}

// FuzzCellFragmentEncoding holds the cell encoder — a column's `"f": "`
// encoded once, the value tokenized where it lies — to Encode of the cell's
// text on a tokenizer fed the same cells, ids included, for any field and
// value bytes; and, when the fields can name two columns of a table, the
// whole prompts to the whole-row walk.
func FuzzCellFragmentEncoding(f *testing.F) {
	for i, s := range awkwardStrings {
		f.Add("field", s, awkwardStrings[(i+1)%len(awkwardStrings)], s, "Q?")
	}
	f.Add("a b", strings.Repeat("word ", 30), `k"`, "v", "What, exactly?")
	f.Fuzz(func(t *testing.T, f1, v1, f2, v2, userPrompt string) {
		b := &promptEncoder{tok: tokenizer.New(), field: make([][]tokenizer.Token, 2)}
		ref := tokenizer.New()
		for _, c := range []struct {
			col  int
			cell core.Cell
		}{
			{0, core.Cell{Field: f1, Value: v1}},
			{1, core.Cell{Field: f2, Value: v2}},
			{0, core.Cell{Field: f1, Value: v2}},
			{1, core.Cell{Field: f2, Value: v1}},
			{0, core.Cell{Field: f1, Value: v1}},
		} {
			got, want := b.encodeCell(c.col, c.cell), ref.Encode(promptPiece{Cell: c.cell}.text())
			if !slices.Equal(got, want) {
				t.Fatalf("cell %q of column %d:\n got %v\nwant %v", promptPiece{Cell: c.cell}.text(), c.col, got, want)
			}
		}

		if f1 == "" || f2 == "" || f1 == f2 {
			return // not the columns of a table
		}
		tbl := table.New(f1, f2)
		tbl.MustAppendRow(v1, v2)
		tbl.MustAppendRow(v2, v1)
		tbl.MustAppendRow(v1, v2)
		a, b0 := core.Cell{Field: f1, Value: v1}, core.Cell{Field: f2, Value: v2}
		checkPromptTokens(t, userPrompt, tbl, &core.Schedule{Rows: []core.Row{
			{Source: 0, Cells: []core.Cell{a, b0}},
			{Source: 1, Cells: []core.Cell{{Field: f2, Value: v1}, {Field: f1, Value: v2}}},
			{Source: 2, Cells: []core.Cell{b0, a}},
		}})
		checkPromptTokens(t, userPrompt, tbl, core.Original(tbl))
	})
}

// TestWriteQuotedMatchesStrconv: the no-escape fast path and its fallback
// agree with strconv.Quote on every byte, alone and inside text.
func TestWriteQuotedMatchesStrconv(t *testing.T) {
	quoted := func(s string) string {
		var sb strings.Builder
		writeQuoted(&sb, s)
		return sb.String()
	}
	for b := 0; b < 256; b++ {
		for _, s := range []string{string([]byte{byte(b)}), "plain " + string([]byte{byte(b)}) + " text"} {
			if got, want := quoted(s), strconv.Quote(s); got != want {
				t.Errorf("byte %#02x: writeQuoted(%q) = %s, want %s", b, s, got, want)
			}
		}
	}
	if got := quoted(""); got != `""` {
		t.Errorf("empty string quoted as %s", got)
	}
}
