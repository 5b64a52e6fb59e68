package query

import (
	"fmt"
)

// Type is a benchmark query category (Sec. 6.1.2).
type Type string

const (
	// Filter mimics a WHERE clause: short categorical outputs.
	Filter Type = "filter"
	// Projection summarizes/interprets fields: long outputs.
	Projection Type = "projection"
	// MultiLLM chains a filter invocation and a projection invocation.
	MultiLLM Type = "multi"
	// Aggregation feeds per-row LLM scores into an AVG.
	Aggregation Type = "aggregation"
	// RAGQA answers questions over retrieved contexts.
	RAGQA Type = "rag"
)

// Spec describes one of the 16 benchmark queries.
type Spec struct {
	// Name is the benchmark identifier, e.g. "movies-filter".
	Name    string
	Dataset string
	Type    Type
	// UserPrompt is the question text (Appendix C).
	UserPrompt string
	// OutTokens is the mean output length (Table 1); per-row lengths jitter
	// ±25% deterministically.
	OutTokens int
	// KeyField is the field the question is actually about; its position in
	// the prompt drives the oracle's accuracy model.
	KeyField string
	// Choices is the label alphabet for classification queries (nil for
	// free-text outputs).
	Choices []string
	// TruthHidden names the hidden column with ground truth ("label",
	// "sentiment", or "score"); empty for free-text queries.
	TruthHidden string
	// Second, for MultiLLM queries, names the projection spec applied to the
	// rows passing the filter, and FilterPass the answer that passes.
	Second     string
	FilterPass string
	// RowKeys, when non-nil, maps a source row to the key seeding the
	// oracle's latent per-row draws and its output budget (OutTokensFor;
	// default: the row position). Content-derived keys (the LLM-SQL executor
	// passes a hash of the row's cells) make a row's answer and budget
	// independent of how a plan slices, joins, or reorders the stage's input
	// table — as a real model's answer would be.
	RowKeys func(row int) uint64
	// RowOutTokens, when non-nil, overrides OutTokensFor per source row.
	// The serving runtime's cross-query batcher sets it when it coalesces
	// rows from several statements into one stage, so every row keeps the
	// exact output budget its own statement would have given it.
	RowOutTokens func(row int) int
}

// specs is the benchmark registry: 16 queries across 5 types, matching
// Sec. 6.1.2 and Appendix A/C.
var specs = []Spec{
	// --- T1: LLM filter (5 queries) ---
	{
		Name: "movies-filter", Dataset: "Movies", Type: Filter,
		UserPrompt: "Given the following fields, answer in one word, 'Yes' or 'No', whether the movie would be suitable for kids. Answer with ONLY 'Yes' or 'No'.",
		OutTokens:  2, KeyField: "movieinfo", Choices: []string{"Yes", "No"}, TruthHidden: "label",
	},
	{
		Name: "products-filter", Dataset: "Products", Type: Filter,
		UserPrompt: "Given the following fields determine if the review speaks positively ('POSITIVE'), negatively ('NEGATIVE'), or neutral ('NEUTRAL') about the product. Answer only 'POSITIVE', 'NEGATIVE', or 'NEUTRAL', nothing else.",
		OutTokens:  3, KeyField: "text", Choices: []string{"POSITIVE", "NEGATIVE", "NEUTRAL"}, TruthHidden: "label",
	},
	{
		Name: "bird-filter", Dataset: "BIRD", Type: Filter,
		UserPrompt: "Given the following fields related to posts in an online codebase community, answer whether the post is related to statistics. Answer with only 'YES' or 'NO'.",
		OutTokens:  2, KeyField: "Body", Choices: []string{"YES", "NO"}, TruthHidden: "label",
	},
	{
		Name: "pdmx-filter", Dataset: "PDMX", Type: Filter,
		UserPrompt: "Based on following fields, answer 'YES' or 'NO' if any of the song information references a specific individual. Answer only 'YES' or 'NO', nothing else.",
		OutTokens:  2, KeyField: "composername", Choices: []string{"YES", "NO"}, TruthHidden: "label",
	},
	{
		Name: "beer-filter", Dataset: "Beer", Type: Filter,
		UserPrompt: "Based on the beer descriptions, does this beer have European origin? Answer 'YES' if it does or 'NO' if it doesn't.",
		OutTokens:  2, KeyField: "beer/style", Choices: []string{"YES", "NO"}, TruthHidden: "label",
	},

	// --- T2: LLM projection (5 queries) ---
	{
		Name: "movies-projection", Dataset: "Movies", Type: Projection,
		UserPrompt: "Given information including movie descriptions and critic reviews, summarize the good qualities in this movie that led to a favorable rating.",
		OutTokens:  29, KeyField: "reviewcontent",
	},
	{
		Name: "products-projection", Dataset: "Products", Type: Projection,
		UserPrompt: "Given the following fields related to amazon products, summarize the product, then answer whether the product description is consistent with the quality expressed in the review.",
		OutTokens:  107, KeyField: "text",
	},
	{
		Name: "bird-projection", Dataset: "BIRD", Type: Projection,
		UserPrompt: "Given the following fields related to posts in an online codebase community, summarize how the comment Text related to the post body.",
		OutTokens:  43, KeyField: "Text",
	},
	{
		Name: "pdmx-projection", Dataset: "PDMX", Type: Projection,
		UserPrompt: "Given the following fields, provide an overview on the music type, and analyze the given scores. Give exactly 50 words of summary.",
		OutTokens:  72, KeyField: "text",
	},
	{
		Name: "beer-projection", Dataset: "Beer", Type: Projection,
		UserPrompt: "Given the following fields, provide an high-level overview on the beer and review in a 20 words paragraph.",
		OutTokens:  38, KeyField: "beer/style",
	},

	// --- T3: Multi-LLM invocation (2 queries) ---
	{
		Name: "movies-multi", Dataset: "Movies", Type: MultiLLM,
		UserPrompt: "Given the following review, answer whether the sentiment associated is 'POSITIVE' or 'NEGATIVE'. Answer in all caps with ONLY 'POSITIVE' or 'NEGATIVE':",
		OutTokens:  3, KeyField: "reviewcontent",
		Choices: []string{"POSITIVE", "NEGATIVE"}, TruthHidden: "sentiment",
		Second: "movies-multi-projection", FilterPass: "NEGATIVE",
	},
	{
		Name: "products-multi", Dataset: "Products", Type: MultiLLM,
		UserPrompt: "Given the following review, answer whether the sentiment associated is 'POSITIVE' or 'NEGATIVE'. Answer in all caps with ONLY 'POSITIVE' or 'NEGATIVE':",
		OutTokens:  3, KeyField: "text",
		Choices: []string{"POSITIVE", "NEGATIVE"}, TruthHidden: "sentiment",
		Second: "products-multi-projection", FilterPass: "NEGATIVE",
	},
	// Second stages of T3 (not counted among the 16 top-level queries).
	{
		Name: "movies-multi-projection", Dataset: "Movies", Type: Projection,
		UserPrompt: "Given the information about a movie, summarize the good qualities that led to a favorable rating.",
		OutTokens:  16, KeyField: "reviewcontent",
	},
	{
		Name: "products-multi-projection", Dataset: "Products", Type: Projection,
		UserPrompt: "Given the following fields related to amazon products, summarize the product, then answer whether the product description is consistent with the quality expressed in the review.",
		OutTokens:  62, KeyField: "text",
	},

	// --- T4: LLM aggregation (2 queries) ---
	{
		Name: "movies-agg", Dataset: "Movies", Type: Aggregation,
		UserPrompt: "Given the following fields of a movie description and a user review, assign a sentiment score for the review out of 5. Answer with ONLY a single integer between 1 (bad) and 5 (good).",
		OutTokens:  2, KeyField: "reviewcontent", TruthHidden: "score",
	},
	{
		Name: "products-agg", Dataset: "Products", Type: Aggregation,
		UserPrompt: "Given the following fields of a product description and a user review, assign a sentiment score for the review out of 5. Answer with ONLY a single integer between 1 (bad) and 5 (good).",
		OutTokens:  2, KeyField: "text", TruthHidden: "score",
	},

	// --- T5: RAG (2 queries) ---
	{
		Name: "fever-rag", Dataset: "FEVER", Type: RAGQA,
		UserPrompt: "You are given 4 pieces of evidence and a claim. Answer SUPPORTS if the pieces of evidence support the given claim, REFUTES if the evidence refutes the given claim, or NOT ENOUGH INFO if there is not enough information to answer. Your answer should just be SUPPORTS, REFUTES, or NOT ENOUGH INFO and nothing else.",
		OutTokens:  3, KeyField: "claim",
		Choices: []string{"SUPPORTS", "REFUTES", "NOT ENOUGH INFO"}, TruthHidden: "label",
	},
	{
		Name: "squad-rag", Dataset: "SQuAD", Type: RAGQA,
		UserPrompt: "Given a question and supporting contexts, answer the provided question.",
		OutTokens:  11, KeyField: "question",
	},
}

// Specs returns the top-level benchmark queries (the 16 of Sec. 6.1.2),
// excluding internal second stages.
func Specs() []Spec {
	var out []Spec
	for _, s := range specs {
		if s.Name == "movies-multi-projection" || s.Name == "products-multi-projection" {
			continue
		}
		out = append(out, s)
	}
	return out
}

// ByName looks up any spec, including multi-LLM second stages.
func ByName(name string) (Spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("query: unknown spec %q", name)
}

// ForDataset returns the spec of the given type over the given dataset.
func ForDataset(dataset string, t Type) (Spec, error) {
	for _, s := range specs {
		if s.Dataset == dataset && s.Type == t {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("query: no %s query for dataset %q", t, dataset)
}

// OutTokensFor returns the deterministic output budget for a source row:
// the spec mean ±25% by a hash of the row's key (RowKeys, else its
// position), unless RowOutTokens overrides it.
func (s Spec) OutTokensFor(source int) int {
	if s.RowOutTokens != nil {
		return s.RowOutTokens(source)
	}
	if s.OutTokens <= 1 {
		return 1
	}
	span := s.OutTokens / 2 // ±25%
	if span == 0 {
		return s.OutTokens
	}
	key := uint64(source)
	if s.RowKeys != nil {
		key = s.RowKeys(source)
	}
	h := key*2654435761 + uint64(len(s.Name))
	return s.OutTokens - span/2 + int(h%uint64(span+1))
}
