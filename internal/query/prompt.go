// Package query implements the LLM-query layer of the reproduction: the
// generic LLM operator over relational tables (Sec. 3.1), prompt
// construction (Sec. 5 / Appendix C), the five query types of the benchmark
// suite (Sec. 6.1.2), and the executor that wires reordering schedules into
// the serving simulator.
package query

import (
	"strconv"
	"strings"

	"repro/internal/core"
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
// included, but computed per distinct cell instead of per row. The tokenizer
// is prefix-stable and '{', '}', ',' and '"' are single-byte tokens, so a
// row's stream is the concatenation of its pieces' streams:
//
//	Encode(prefix) Encode("{") Encode(`"f1": "v1"`) Encode(", ") Encode(`"f2": "v2"`) … Encode("}")
//
// Each distinct piece is walked once — through cache when one is attached,
// else through a memo and a throwaway tokenizer confined to this call — and
// a cell in a row's leading run of cells equal to the previous row's, which
// is most cells of a reordered schedule, takes that row's piece without even
// the memo lookup. Pieces are first encoded in serialization order, so a
// fresh tokenizer assigns exactly the ids a whole-row walk would.
//
// Rows are assembled promptSlabRows at a time, in two passes: the first
// collects the rows' pieces and sizes them, the second copies them into one
// exactly-sized token slab that the rows' streams are capacity-limited
// windows of. The pieces buffer is reused from slab to slab, so what a stage
// allocates beyond its tokens does not grow with the stage.
func PromptTokens(userPrompt string, sched *core.Schedule, cache *PromptCache) [][]tokenizer.Token {
	var encode func(promptPiece) []tokenizer.Token
	if cache != nil {
		encode = cache.encode
	} else {
		tok, memo := tokenizer.New(), make(map[promptPiece][]tokenizer.Token)
		encode = func(p promptPiece) []tokenizer.Token {
			toks, ok := memo[p]
			if !ok {
				toks = tok.Encode(p.text())
				memo[p] = toks
			}
			return toks
		}
	}
	literal := func(text string) []tokenizer.Token {
		return encode(literalPiece(text))
	}
	prefix := literal(PromptPrefix(userPrompt))
	var open, sep, end []tokenizer.Token // encoded where the first row needs them
	var cells [][]tokenizer.Token        // the current slab's cell pieces, row after row
	out := make([][]tokenizer.Token, len(sched.Rows))
	for lo := 0; lo < len(sched.Rows); lo += promptSlabRows {
		rows := sched.Rows[lo:min(lo+promptSlabRows, len(sched.Rows))]
		cells = cells[:0]
		total := 0
		for i, row := range rows {
			if open == nil {
				open = literal("{")
			}
			var prev []core.Cell // the previous row's cells while this row's still equal them
			if i > 0 {
				prev = rows[i-1].Cells
			}
			prevAt := len(cells) - len(prev)
			for k, c := range row.Cells {
				if k > 0 && sep == nil {
					sep = literal(", ")
				}
				var piece []tokenizer.Token
				if k < len(prev) && prev[k] == c {
					piece = cells[prevAt+k]
				} else {
					prev = nil
					piece = encode(promptPiece{Cell: c})
				}
				cells = append(cells, piece)
				total += len(piece)
			}
			if end == nil {
				end = literal("}")
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
				slab, next = append(slab, next[0]...), next[1:]
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

// promptPiece is one separately tokenized piece of a prompt, and the key it
// is memoized under: a cell, or literal text (a stage prefix, the JSON
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
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			sb.WriteString(strconv.Quote(s))
			return
		}
	}
	sb.WriteByte('"')
	sb.WriteString(s)
	sb.WriteByte('"')
}
