package sqlfront

import (
	"sort"

	"repro/internal/query"
	"repro/internal/table"
	"repro/internal/tokenizer"
)

// Cost-based ordering of LLM filter stages. When a statement carries several
// LLM predicates, the executor runs them as a cascade — each residual
// conjunct prunes the working relation as soon as its stage outputs exist —
// so the order of the pre-stages decides how many model calls the later,
// more expensive stages pay for. For independent predicates the cascade cost
//
//	N·c₁ + N·s₁·c₂ + N·s₁·s₂·c₃ + …
//
// is minimized by sorting stages on ascending rank cᵢ/(1−sᵢ), where cᵢ is
// the estimated per-call prompt cost in tokens and sᵢ the estimated
// selectivity (fraction of rows surviving the stage's conjuncts): cheap,
// selective filters first. ExecConfig.Naive keeps occurrence order instead,
// so the two orderings can be A/B measured on identical statements.

const (
	// costSampleRows bounds the rows sampled when estimating per-call prompt
	// tokens and label frequencies.
	costSampleRows = 64
	// aggScoreSpan is the synthetic aggregation alphabet 1..aggScoreSpan.
	aggScoreSpan = 5
)

// orderStagesByCost returns the pre-stages sorted cheapest-rank-first over
// the working relation tbl. residual is the statement's LLM-dependent WHERE
// remainder. Stages whose conjuncts prune nothing (selectivity ~1) rank
// last; the sort is stable, so ties keep occurrence order.
func orderStagesByCost(stages []PlannedStage, residual Expr, tbl *table.Table) []PlannedStage {
	if len(stages) < 2 {
		return stages
	}
	type ranked struct {
		st   PlannedStage
		rank float64
	}
	rs := make([]ranked, len(stages))
	for i, st := range stages {
		cost := estimateCallCost(st.Call, tbl)
		sel := estimateSelectivity(st, residual, tbl)
		rs[i] = ranked{st: st, rank: cost / (1 - sel + 1e-9)}
	}
	sort.SliceStable(rs, func(a, b int) bool { return rs[a].rank < rs[b].rank })
	out := make([]PlannedStage, len(rs))
	for i, r := range rs {
		out[i] = r.st
	}
	return out
}

// estimateCallCost estimates the mean prompt tokens of one invocation of c
// over tbl: the static prefix (system prompt + question) plus the token mass
// of the referenced fields, averaged over a row sample.
func estimateCallCost(c LLMCall, tbl *table.Table) float64 {
	cost := float64(tokenizer.Count(query.PromptPrefix(c.Prompt)))
	var cols []int
	if c.AllFields {
		for i := 0; i < tbl.NumCols(); i++ {
			cols = append(cols, i)
		}
	} else {
		for _, f := range c.Fields {
			if ci, ok := tbl.ColIndex(f.Column); ok {
				cols = append(cols, ci)
			}
		}
	}
	n := tbl.NumRows()
	if n > costSampleRows {
		n = costSampleRows
	}
	if n == 0 || len(cols) == 0 {
		return cost
	}
	var data int
	for r := 0; r < n; r++ {
		for _, ci := range cols {
			data += tokenizer.Count(tbl.Cell(r, ci))
		}
	}
	return cost + float64(data)/float64(n)
}

// estimateSelectivity estimates the fraction of rows that survive the
// residual conjuncts depending solely on st's call: for each such conjunct,
// the pass probability is the expectation over the stage's answer alphabet
// (the compared literals plus a none-of-the-above complement, or the
// sampled label distribution when the relation carries covering ground
// truth — the same alphabet filterChoices anchors at execution time).
// Conjuncts that also involve other stages or plain columns cannot cascade
// on this stage alone and contribute nothing; with no solo conjunct the
// estimate is 1 (the stage prunes nothing by itself).
func estimateSelectivity(st PlannedStage, residual Expr, tbl *table.Table) float64 {
	key := st.Call.Key()
	var solo []Expr
	for _, c := range conjuncts(residual) {
		keys := llmKeysOf(c)
		if len(keys) != 1 || !keys[key] {
			continue
		}
		plain := false
		walkCompares(c, func(cmp *Compare) {
			if cmp.LLM == nil {
				plain = true
			}
		})
		if !plain {
			solo = append(solo, c)
		}
	}
	if len(solo) == 0 {
		return 1
	}
	choices, probs := stageAlphabet(st, tbl)
	sel := 1.0
	for _, c := range solo {
		p := 0.0
		for i, choice := range choices {
			if evalWithOutput(c, choice) {
				p += probs[i]
			}
		}
		sel *= p
	}
	if sel < 0 {
		sel = 0
	}
	if sel > 1 {
		sel = 1
	}
	return sel
}

// stageAlphabet models the stage's answer distribution. Aggregation stages
// score 1..aggScoreSpan uniformly. Filter stages answer from the relation's
// ground-truth labels when those cover every compared literal (probabilities
// sampled from the label column), and otherwise from the synthetic alphabet
// of compared literals plus a uniform none-of-the-above complement —
// mirroring filterChoices, which anchors the same alphabet at execution
// time.
func stageAlphabet(st PlannedStage, tbl *table.Table) (choices []string, probs []float64) {
	if st.Type == query.Aggregation {
		for s := 1; s <= aggScoreSpan; s++ {
			choices = append(choices, string(rune('0'+s)))
			probs = append(probs, 1.0/aggScoreSpan)
		}
		return choices, probs
	}
	literals := st.Literals
	if len(literals) == 0 {
		literals = []string{"Yes"}
	}
	if labels, ok := tbl.Hidden("label"); ok && len(labels) > 0 {
		n := len(labels)
		if n > 4*costSampleRows {
			n = 4 * costSampleRows
		}
		freq := map[string]int{}
		for _, l := range labels[:n] {
			freq[l]++
		}
		covered := true
		for _, lit := range literals {
			if freq[lit] == 0 {
				covered = false
				break
			}
		}
		if covered {
			for l, c := range freq {
				choices = append(choices, l)
				probs = append(probs, float64(c)/float64(n))
			}
			return choices, probs
		}
	}
	choices = append(append([]string(nil), literals...), complementLiteral(literals))
	probs = make([]float64, len(choices))
	for i := range probs {
		probs[i] = 1.0 / float64(len(choices))
	}
	return choices, probs
}

// evalWithOutput evaluates a conjunct whose only leaves are comparisons of
// one LLM call, with that call's output fixed to out.
func evalWithOutput(e Expr, out string) bool {
	pass, _ := compilePred(e, func(c *Compare) (rowPred, error) { // this leaf never fails
		lit := compileLiteral(c)
		return func(int) bool { return lit.match(out) }, nil
	})
	return pass(0)
}
