// Package query implements the LLM-query layer of the reproduction: the
// generic LLM operator over relational tables (Sec. 3.1), prompt
// construction (Sec. 5 / Appendix C), the five query types of the benchmark
// suite (Sec. 6.1.2), and the executor that wires reordering schedules into
// the serving simulator.
package query

import (
	"slices"
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
// rows are assembled by copying token slices. Pieces are first encoded in
// serialization order, so a fresh tokenizer assigns exactly the ids a
// whole-row walk would.
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
	var parts [][]tokenizer.Token
	out := make([][]tokenizer.Token, len(sched.Rows))
	for i, row := range sched.Rows {
		if open == nil {
			open = literal("{")
		}
		parts = append(parts[:0], prefix, open)
		for k, c := range row.Cells {
			if k > 0 {
				if sep == nil {
					sep = literal(", ")
				}
				parts = append(parts, sep)
			}
			parts = append(parts, encode(promptPiece{Cell: c}))
		}
		if end == nil {
			end = literal("}")
		}
		parts = append(parts, end)
		out[i] = slices.Concat(parts...)
	}
	return out
}

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
	buf := make([]byte, 0, len(p.Field)+len(p.Value)+8)
	buf = strconv.AppendQuote(buf, p.Field)
	buf = append(buf, ": "...)
	buf = strconv.AppendQuote(buf, p.Value)
	return string(buf)
}
