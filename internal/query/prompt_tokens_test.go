package query

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/tokenizer"
)

// wholeRowTokens is the textual spec PromptTokens must reproduce: one fresh
// tokenizer walking the prefix, then every row's RowJSON, whole.
func wholeRowTokens(userPrompt string, sched *core.Schedule) [][]tokenizer.Token {
	tok := tokenizer.New()
	prefix := tok.Encode(PromptPrefix(userPrompt))
	out := make([][]tokenizer.Token, len(sched.Rows))
	for i, row := range sched.Rows {
		out[i] = slices.Concat(prefix, tok.Encode(RowJSON(row.Cells)))
	}
	return out
}

// checkPromptTokens holds the piece-assembled streams to the whole-row walk
// token for token, ids included — with the stage-confined memo, a fresh
// shared cache, and a cache so small every piece is evicted between uses.
func checkPromptTokens(t *testing.T, userPrompt string, sched *core.Schedule) {
	t.Helper()
	want := wholeRowTokens(userPrompt, sched)
	for name, cache := range map[string]*PromptCache{"stage memo": nil, "cache": NewPromptCache(0), "evicting cache": NewPromptCache(1)} {
		got := PromptTokens(userPrompt, sched, cache)
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

func TestPromptTokensMatchWholeRowWalk(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pick := func() string {
		if r.Intn(4) == 0 {
			return awkwardStrings[r.Intn(len(awkwardStrings))] + awkwardStrings[r.Intn(len(awkwardStrings))]
		}
		return awkwardStrings[r.Intn(len(awkwardStrings))]
	}
	for trial := 0; trial < 200; trial++ {
		fields := make([]string, r.Intn(5))
		for i := range fields {
			fields[i] = pick()
		}
		sched := &core.Schedule{}
		for i, n := 0, r.Intn(8); i < n; i++ {
			cells := make([]core.Cell, len(fields))
			for k, p := range r.Perm(len(fields)) {
				cells[k] = core.Cell{Field: fields[p], Value: pick()}
			}
			sched.Rows = append(sched.Rows, core.Row{Source: i, Cells: cells})
		}
		checkPromptTokens(t, pick(), sched)
	}
}

// TestPromptTokensOnSolvedSchedule runs the equivalence over a real GGR
// schedule, where per-row field orders differ and values repeat, long enough
// to span several token slabs.
func TestPromptTokensOnSolvedSchedule(t *testing.T) {
	tbl := cacheTestTable(2*promptSlabRows+60, "")
	sched := core.GGR(tbl, core.DefaultGGROptions(tokenizer.Count)).Schedule
	checkPromptTokens(t, "Summarize the text.", sched)
}

func FuzzCellFragmentEncoding(f *testing.F) {
	for i, s := range awkwardStrings {
		f.Add("field", s, awkwardStrings[(i+1)%len(awkwardStrings)], s, "Q?")
	}
	f.Add("a b", strings.Repeat("word ", 30), `k"`, "v", "What, exactly?")
	f.Fuzz(func(t *testing.T, f1, v1, f2, v2, userPrompt string) {
		a, b := core.Cell{Field: f1, Value: v1}, core.Cell{Field: f2, Value: v2}
		checkPromptTokens(t, userPrompt, &core.Schedule{Rows: []core.Row{
			{Source: 0, Cells: []core.Cell{a, b}},
			{Source: 1, Cells: []core.Cell{b, a}},
			{Source: 2, Cells: []core.Cell{a}},
			{Source: 3},
			{Source: 4, Cells: []core.Cell{a, b}},
		}})
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
