// Package oracle is a deterministic stand-in for LLM answer behaviour. The
// serving simulator accounts time and memory; this package decides what the
// model says, so the accuracy experiments (Fig. 6) can run end to end.
//
// The model: for a labelled classification row, the simulated LLM answers
// correctly with probability
//
//	acc = base(model, dataset) + coef(model, dataset) × (relPos − ½)
//
// where relPos ∈ [0,1] is the relative position of the dataset's key field
// (the field the question is actually about) within that row's prompt. The
// per-row random draw is a hash of (model, dataset, source row), so the same
// row compares consistently across schedules: reordering changes the outcome
// only through the position term. The coefficients encode the paper's
// observed sensitivities — small for large models, and a strong positive
// claim-position effect for Llama-3-8B on FEVER (Sec. 6.4: +14.2% when GGR
// moves the claim to the end of the prompt).
package oracle

import (
	"strconv"
	"strings"
)

// Profile is one model's behavioural parameters.
type Profile struct {
	Name string
	// Base accuracy per dataset; DefaultBase covers unlisted datasets.
	Base        map[string]float64
	DefaultBase float64
	// Coef is the accuracy swing per dataset as the key field moves from the
	// front (relPos 0) to the back (relPos 1) of the prompt.
	Coef map[string]float64
}

// Profiles for the three models of the accuracy study (Fig. 6). Base rates
// approximate the figure's levels; coefficient signs match the reported
// median deltas (GGR generally moves unique content fields later and grouped
// fields earlier).
var (
	Llama8B = Profile{
		Name:        "llama-3-8b",
		DefaultBase: 0.72,
		Base: map[string]float64{
			"Movies": 0.78, "Products": 0.75, "BIRD": 0.72,
			"PDMX": 0.68, "Beer": 0.81, "FEVER": 0.60,
		},
		Coef: map[string]float64{
			"Movies": 0.07, "Products": -0.02, "BIRD": 0.00,
			"PDMX": 0.02, "Beer": 0.13, "FEVER": 0.145,
		},
	}
	Llama70B = Profile{
		Name:        "llama-3-70b",
		DefaultBase: 0.80,
		Base: map[string]float64{
			"Movies": 0.85, "Products": 0.82, "BIRD": 0.80,
			"PDMX": 0.76, "Beer": 0.86, "FEVER": 0.75,
		},
		Coef: map[string]float64{
			"Movies": 0.09, "Products": 0.02, "BIRD": 0.02,
			"PDMX": -0.02, "Beer": 0.07, "FEVER": 0.017,
		},
	}
	GPT4o = Profile{
		Name:        "gpt-4o",
		DefaultBase: 0.84,
		Base: map[string]float64{
			"Movies": 0.88, "Products": 0.85, "BIRD": 0.83,
			"PDMX": 0.80, "Beer": 0.88, "FEVER": 0.80,
		},
		Coef: map[string]float64{
			"Movies": -0.07, "Products": -0.04, "BIRD": -0.02,
			"PDMX": 0.08, "Beer": 0.07, "FEVER": -0.024,
		},
	}
)

// Accuracy returns the per-row correctness probability for the key field at
// the given relative position, clamped to [0.02, 0.99].
func (p Profile) Accuracy(dataset string, relPos float64) float64 {
	base, ok := p.Base[dataset]
	if !ok {
		base = p.DefaultBase
	}
	acc := base + p.Coef[dataset]*(relPos-0.5)
	if acc < 0.02 {
		acc = 0.02
	}
	if acc > 0.99 {
		acc = 0.99
	}
	return acc
}

// Answer decides the model's output for a classification row. truth is the
// ground-truth label, choices the label alphabet (must contain truth), and
// relPos the key field's relative position in this row's prompt. The same
// (profile, dataset, rowKey) always consumes the same latent random draw.
func (p Profile) Answer(dataset string, rowKey uint64, truth string, choices []string, relPos float64) string {
	u := hash01(p.Name, dataset, rowKey, "answer")
	if u < p.Accuracy(dataset, relPos) {
		return truth
	}
	// Deterministically pick a wrong choice: the idx-th choice that is not
	// the truth.
	wrong := 0
	for _, c := range choices {
		if c != truth {
			wrong++
		}
	}
	if wrong == 0 {
		return truth
	}
	idx := hashN(uint64(wrong), p.Name, dataset, rowKey, "wrong")
	for _, c := range choices {
		if c == truth {
			continue
		}
		if idx == 0 {
			return c
		}
		idx--
	}
	return truth // unreachable: idx < wrong
}

// Score returns a 1..maxScore sentiment score for aggregation queries: the
// ground-truth score perturbed by ±1 with the complement of the accuracy
// probability.
func (p Profile) Score(dataset string, rowKey uint64, truth int, maxScore int, relPos float64) int {
	u := hash01(p.Name, dataset, rowKey, "score")
	if u < p.Accuracy(dataset, relPos) {
		return clampScore(truth, maxScore)
	}
	if hashN(2, p.Name, dataset, rowKey, "dir") == 0 {
		return clampScore(truth-1, maxScore)
	}
	return clampScore(truth+1, maxScore)
}

func clampScore(s, maxScore int) int {
	if s < 1 {
		return 1
	}
	if s > maxScore {
		return maxScore
	}
	return s
}

// FreeText synthesizes a deterministic free-form answer of roughly the given
// token budget, for projection/summarization outputs whose content is
// incidental to the experiments.
func FreeText(rowKey uint64, tokens int) string {
	if tokens <= 0 {
		tokens = 1
	}
	// The result cache retains every answer, so the buffer is sized exactly:
	// a first pass over the same word sequence sums its length.
	size := tokens - 1
	for i, h := 0, rowKey; i < tokens; i++ {
		h = freeTextStep(h)
		size += len(freeTextWords[h%uint64(len(freeTextWords))])
	}
	var sb strings.Builder
	sb.Grow(size)
	for i, h := 0, rowKey; i < tokens; i++ {
		if i > 0 {
			sb.WriteByte(' ')
		}
		h = freeTextStep(h)
		sb.WriteString(freeTextWords[h%uint64(len(freeTextWords))])
	}
	return sb.String()
}

// freeTextWords is FreeText's vocabulary. Every word is at most six bytes,
// so each word plus its leading space fits one tokenizer piece and the
// budget is met exactly.
var freeTextWords = [...]string{
	"the", "notes", "good", "with", "points", "and", "minor",
	"flaws", "a", "review", "says", "tone", "is", "clear",
	"brief", "solid", "mixed", "rating", "holds", "up",
}

// freeTextStep advances FreeText's word generator (a 64-bit LCG).
func freeTextStep(h uint64) uint64 { return h*6364136223846793005 + 1442695040888963407 }

// hash01 maps the inputs to [0, 1).
func hash01(name, dataset string, rowKey uint64, tag string) float64 {
	return float64(hashN(1<<52, name, dataset, rowKey, tag)) / float64(uint64(1)<<52)
}

// hashN maps the inputs to [0, n): FNV-1a over each part's text — rowKey
// in decimal — with a 0x1f after every part.
func hashN(n uint64, name, dataset string, rowKey uint64, tag string) uint64 {
	var digits [20]byte
	h := uint64(1469598103934665603)
	h = mix(h, name)
	h = mix(h, dataset)
	h = mix(h, strconv.AppendUint(digits[:0], rowKey, 10))
	h = mix(h, tag)
	if n == 0 {
		return 0
	}
	return h % n
}

// mix folds part and its 0x1f terminator into the FNV-1a state h.
func mix[T string | []byte](h uint64, part T) uint64 {
	const prime = 1099511628211
	for i := 0; i < len(part); i++ {
		h = (h ^ uint64(part[i])) * prime
	}
	return (h ^ 0x1f) * prime
}
