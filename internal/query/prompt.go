// Package query implements the LLM-query layer of the reproduction: the
// generic LLM operator over relational tables (Sec. 3.1), prompt
// construction (Sec. 5 / Appendix C), the five query types of the benchmark
// suite (Sec. 6.1.2), and the executor that wires reordering schedules into
// the serving simulator.
package query

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/table"
	"repro/internal/tokenizer"
)

// SystemPrompt is the shared instruction prefix (Appendix C). Because it is
// identical across every request of a query, it is the floor of each
// baseline's prefix hit rate.
const SystemPrompt = "You are a data analyst. Use the provided JSON data to answer the user query " +
	"based on the specified fields. Respond with only the answer, no extra formatting."

// PromptPrefix renders the static part of every request of a query: system
// prompt plus the user's question. It ends at a hard token boundary so the
// per-row JSON payload never merges into the shared prefix.
func PromptPrefix(userPrompt string) string {
	var sb strings.Builder
	sb.WriteString(SystemPrompt)
	sb.WriteString("\nAnswer the below query:\n")
	sb.WriteString(userPrompt)
	sb.WriteString("\nGiven the following data:\n")
	return sb.String()
}

// RowJSON serializes a scheduled row as a JSON object whose keys appear in
// the schedule's field order (Sec. 5: JSON encoding ties field names to
// values for the LLM; key order is what the reordering algorithms optimize).
func RowJSON(cells []core.Cell) string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, c := range cells {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(strconv.Quote(c.Field))
		sb.WriteString(": ")
		sb.WriteString(strconv.Quote(c.Value))
	}
	sb.WriteByte('}')
	return sb.String()
}

// BuildPrompt assembles the full request text for one scheduled row.
func BuildPrompt(userPrompt string, cells []core.Cell) string {
	return PromptPrefix(userPrompt) + RowJSON(cells)
}

// PromptTokens tokenizes every request of a scheduled stage: element i is
// the token stream of BuildPrompt(userPrompt, sched.Rows[i].Cells), ids
// included, but computed per distinct cell instead of per row. sched must be
// a schedule of tbl (core.Verify accepts it): a cell is looked up by its
// column and its source row's value id in the table's dictionary
// (table.Dictionary), so a repeated cell costs an array index, not a string
// hash. The tokenizer is prefix-stable and '{', '}', ',' and '"' are
// single-byte tokens, so a row's stream is the concatenation of its pieces'
// streams:
//
//	Encode(prefix) Encode("{") Encode(`"f1": "v1"`) Encode(", ") Encode(`"f2": "v2"`) … Encode("}")
//
// Each distinct piece is encoded once — through cache when one is attached,
// else straight into one arena through a tokenizer confined to this call
// (see promptEncoder.encodeCell). Pieces are first encoded in serialization
// order, so a fresh tokenizer assigns exactly the ids a whole-row walk
// would.
//
// Rows are assembled promptSlabRows at a time, in two passes: the first
// collects the rows' pieces and sizes them, the second copies them into one
// exactly-sized token slab that the rows' streams are capacity-limited
// windows of. The pieces buffer is reused from slab to slab, so what a stage
// allocates beyond its tokens does not grow with the stage.
func PromptTokens(userPrompt string, tbl *table.Table, sched *core.Schedule, cache *PromptCache) [][]tokenizer.Token {
	prefixText := PromptPrefix(userPrompt)
	b := newPromptEncoder(tbl, cache, len(prefixText)+len("{, }"))
	prefix := b.prefix(prefixText)
	var open, sep, end []tokenizer.Token // encoded where the first row needs them
	var cells []int32                    // the current slab's cell pieces, row after row, by memo index
	out := make([][]tokenizer.Token, len(sched.Rows))
	for lo := 0; lo < len(sched.Rows); lo += promptSlabRows {
		rows := sched.Rows[lo:min(lo+promptSlabRows, len(sched.Rows))]
		cells = cells[:0]
		total := 0
		for _, row := range rows {
			if open == nil {
				open = b.literal("{")
			}
			for k, c := range row.Cells {
				if k > 0 && sep == nil {
					sep = b.literal(", ")
				}
				i := b.cell(k, row.Source, c)
				cells = append(cells, i)
				total += len(b.memo[i])
			}
			if end == nil {
				end = b.literal("}")
			}
			total += len(prefix) + len(open) + max(0, len(row.Cells)-1)*len(sep) + len(end)
		}
		slab, next := make([]tokenizer.Token, 0, total), cells
		for i, row := range rows {
			start := len(slab)
			slab = append(append(slab, prefix...), open...)
			for k := range row.Cells {
				if k > 0 {
					slab = append(slab, sep...)
				}
				slab, next = append(slab, b.memo[next[0]]...), next[1:]
			}
			slab = append(slab, end...)
			out[lo+i] = slab[start:len(slab):len(slab)]
		}
	}
	return out
}

// promptSlabRows is how many rows share one token slab: enough that a
// stage's allocations are its slabs, few enough that the buffer of pieces
// held between the two passes stays a few percent of one slab.
const promptSlabRows = 128

// promptEncoder is one PromptTokens call's state: the pieces it encoded and
// a memo of the cells among them by (column, value id). A piece is a
// capacity-limited window of the arena, or the cache's own shared slice.
type promptEncoder struct {
	cache *PromptCache
	tok   *tokenizer.Tokenizer // the call's own; nil when cache is attached
	arena []tokenizer.Token    // what tok encoded, back to back

	tbl   *table.Table
	codes [][]int32           // the table dictionary's [col][row] value ids
	base  []int               // [col]: memo index of the column's value id 0
	memo  [][]tokenizer.Token // [base[col] + id]: the cell's piece; nil until encoded
	field [][]tokenizer.Token // [col]: the column's `"field": "` tokens (own tokenizer only)

	// at and atCol cache, per cell position, the last field seen there and
	// its column: consecutive rows mostly share their field order.
	at    []string
	atCol []int
}

// newPromptEncoder prepares an encoder for tbl's cells and literal text of
// literalBytes bytes.
func newPromptEncoder(tbl *table.Table, cache *PromptCache, literalBytes int) *promptEncoder {
	d := tbl.Dictionary()
	m := tbl.NumCols()
	b := &promptEncoder{
		cache: cache,
		tbl:   tbl,
		codes: d.Codes,
		base:  make([]int, m),
		at:    make([]string, m),
		atCol: make([]int, m),
	}
	cells := 0
	for c, first := range d.First {
		b.base[c] = cells
		cells += len(first)
	}
	b.memo = make([][]tokenizer.Token, cells)
	if cache == nil {
		text := literalBytes
		for c, first := range d.First {
			text += len(first) * (len(tbl.Columns()[c]) + len(`"": ""`))
			for _, r := range first {
				text += len(tbl.Cell(int(r), c))
			}
		}
		b.tok, b.field = tokenizer.New(), make([][]tokenizer.Token, m)
		b.arena = make([]tokenizer.Token, 0, text*arenaTokensPerKB/1024)
	}
	return b
}

// arenaTokensPerKB sizes the arena from the bytes of the text it will hold:
// about the 290–440 tokens a kilobyte of the generated datasets' cells
// becomes, so most stages' arenas grow once at most.
const arenaTokensPerKB = 400

// cell returns the memo index of the cell at position k of a row of source
// row src, encoding the cell on first sight.
func (b *promptEncoder) cell(k, src int, c core.Cell) int32 {
	col := b.column(k, c.Field)
	i := b.base[col] + int(b.codes[col][src])
	if b.memo[i] == nil {
		b.memo[i] = b.encodeCell(col, c)
	}
	return int32(i)
}

// column resolves the field at cell position k to its table column.
func (b *promptEncoder) column(k int, field string) int {
	if k < len(b.at) && b.at[k] == field {
		return b.atCol[k]
	}
	col, ok := b.tbl.ColIndex(field)
	if !ok || k >= len(b.at) {
		panic(fmt.Sprintf("query: scheduled cell %d, field %q, does not fit the table's columns %q", k, field, b.tbl.Columns()))
	}
	b.at[k], b.atCol[k] = field, col
	return col
}

// prefix encodes a stage's prompt prefix. Through a cache it is tokenized on
// the shared tokenizer but not memoized: the prefix carries the statement's
// own prompt, which on ad-hoc traffic never recurs, and a memoized one would
// keep its text and tokens alive until evicted — one dead entry per
// statement served.
func (b *promptEncoder) prefix(text string) []tokenizer.Token {
	if b.cache != nil {
		return b.cache.tok.Encode(text)
	}
	return b.literal(text)
}

// literal encodes text as is.
func (b *promptEncoder) literal(text string) []tokenizer.Token {
	if b.cache != nil {
		return b.cache.encode(literalPiece(text))
	}
	off := len(b.arena)
	b.arena = b.tok.AppendEncode(b.arena, text)
	return b.from(off)
}

// encodeCell encodes a cell of column col — its text as RowJSON serializes
// it. Through a cache that is the cache's piece. On the encoder's own
// tokenizer the tokens go straight into the arena, built from parts none of
// which is rendered to a string: a '"' is a token of its own, and no token
// spans one, so
//
//	Encode(`"f": "v"`) = Encode(`"f": "`) Encode(`v`) Encode(`"`)
//
// The column's `"f": "` is encoded once, at its first cell, and copied
// after that; a value with nothing to escape is encoded where it lies,
// followed by the '"' token that leads the column's part. Only a value that
// needs escaping is quoted first (its leading '"' is the one the column's
// part ends with). Every token is interned in the order a whole-row walk
// would intern it.
func (b *promptEncoder) encodeCell(col int, c core.Cell) []tokenizer.Token {
	if b.cache != nil {
		return b.cache.encode(promptPiece{Cell: c})
	}
	off := len(b.arena)
	f := b.field[col]
	if f == nil {
		var sb strings.Builder
		writeQuoted(&sb, c.Field)
		sb.WriteString(`: "`)
		b.arena = b.tok.AppendEncode(b.arena, sb.String())
		f = b.from(off)
		b.field[col] = f
	} else {
		b.arena = append(b.arena, f...)
	}
	if plain(c.Value) {
		b.arena = append(b.tok.AppendEncode(b.arena, c.Value), f[0])
	} else {
		b.arena = b.tok.AppendEncode(b.arena, strconv.Quote(c.Value)[1:])
	}
	return b.from(off)
}

// from is the arena's run from off to its end. Later pieces may move the
// arena; the run keeps the tokens where they were written.
func (b *promptEncoder) from(off int) []tokenizer.Token {
	return b.arena[off:len(b.arena):len(b.arena)]
}

// promptPiece is one separately tokenized piece of a prompt, and the key
// PromptCache memoizes it under: a cell, or literal text (the JSON
// punctuation) carried in Value.
type promptPiece struct {
	core.Cell
	literal bool
}

// literalPiece is the piece for text tokenized as is.
func literalPiece(text string) promptPiece {
	return promptPiece{Cell: core.Cell{Value: text}, literal: true}
}

// text renders the piece: literal text as is, a cell as RowJSON serializes
// it.
func (p promptPiece) text() string {
	if p.literal {
		return p.Value
	}
	var sb strings.Builder
	sb.Grow(len(p.Field) + len(p.Value) + len(`"": ""`))
	writeQuoted(&sb, p.Field)
	sb.WriteString(": ")
	writeQuoted(&sb, p.Value)
	return sb.String()
}

// writeQuoted writes strconv.Quote(s), with a fast path for what nearly
// every cell is: printable ASCII with nothing to escape is wrapped in quotes
// as is.
func writeQuoted(sb *strings.Builder, s string) {
	if !plain(s) {
		sb.WriteString(strconv.Quote(s))
		return
	}
	sb.WriteByte('"')
	sb.WriteString(s)
	sb.WriteByte('"')
}

// plain reports whether strconv.Quote(s) is s in quotes: printable ASCII
// without '"' or '\'.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}
