// Package bench is the experiment harness: one runner per table and figure
// of the paper's evaluation (the registry below is the index), plus ablation
// benches for the design choices. Every runner returns a Report whose rows
// mirror the paper's presentation, so `cmd/llmqbench -exp fig3a` regenerates
// the corresponding artifact. All runners schedule in one length unit,
// tokenizer.Count: PHC in tokens, matching what the KV cache stores.
package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/datagen"
	"repro/internal/llmsim"
	"repro/internal/query"
	"repro/internal/table"
)

// poolBlocks sizes the engine's KV pool for a run. At full scale the cost
// model's derivation is used untouched (returns 0 = no override); at
// fractional scales the pool shrinks proportionally so eviction pressure —
// which the full-scale Cache(Original) hit rates depend on — is preserved. A
// floor keeps several concurrent long-prompt requests schedulable.
func (c Config) poolBlocks(model llmsim.ModelConfig, cluster llmsim.Cluster) int64 {
	if c.scale() >= 1 {
		return 0
	}
	cost := llmsim.CostModel{Model: model, Cluster: cluster}
	full := cost.KVPoolBlocks(16)
	scaled := int64(float64(full) * c.scale())
	// The floor (128 blocks = 2048 tokens at block size 16) still fits the
	// longest RAG prompt with room for a second request.
	const floor = 128
	if scaled < floor {
		scaled = floor
	}
	if full > 0 && scaled > full {
		scaled = full
	}
	return scaled
}

// queryConfig assembles the standard execution config for a policy.
func (c Config) queryConfig(p query.Policy, model llmsim.ModelConfig, cluster llmsim.Cluster) query.Config {
	return query.Config{
		Policy:       p,
		Model:        model,
		Cluster:      cluster,
		KVPoolBlocks: c.poolBlocks(model, cluster),
	}
}

// Config scales and seeds an experiment run.
type Config struct {
	// Scale multiplies dataset sizes (1.0 = the paper's sizes). Full-scale
	// runs reproduce the headline numbers; small scales keep CI fast.
	Scale float64
	// Seed drives all data generation and resampling.
	Seed int64
	// BootstrapReps for fig6 (default 10,000, the paper's count).
	BootstrapReps int
	// OPHRNodeBudget bounds the exact solver in table6 (default 3e6 nodes),
	// standing in for the paper's two-hour timeout.
	OPHRNodeBudget int64

	// ctx is the run's cancellation scope, set by RunContext — the only way
	// into a runner. Runners thread it into every simulated query, so a
	// canceled experiment stops at the next query boundary (or between
	// engine steps inside one).
	ctx context.Context
}

func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return 1.0
	}
	return c.Scale
}

func (c Config) reps() int {
	if c.BootstrapReps > 0 {
		return c.BootstrapReps
	}
	return 10000
}

func (c Config) ophrBudget() int64 {
	if c.OPHRNodeBudget > 0 {
		return c.OPHRNodeBudget
	}
	return 3_000_000
}

func (c Config) genOpt() datagen.Options {
	return datagen.Options{Scale: c.scale(), Seed: c.Seed}
}

// Report is a rendered experiment result.
type Report struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Text renders an aligned fixed-width table.
func (r *Report) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s — %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(r.Columns)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// CSV renders comma-separated values (quoted where needed).
func (r *Report) CSV() string {
	var sb strings.Builder
	writeCSVRow(&sb, r.Columns)
	for _, row := range r.Rows {
		writeCSVRow(&sb, row)
	}
	return sb.String()
}

func writeCSVRow(sb *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			sb.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			sb.WriteString(`"` + strings.ReplaceAll(c, `"`, `""`) + `"`)
		} else {
			sb.WriteString(c)
		}
	}
	sb.WriteByte('\n')
}

// Runner produces one experiment's report.
type Runner func(Config) (*Report, error)

var registry = map[string]Runner{
	"fig1a":          runFig1a,
	"fig1b":          runFig1b,
	"table1":         runTable1,
	"fig3a":          runFig3a,
	"fig3b":          runFig3b,
	"fig4":           runFig4,
	"fig5":           runFig5,
	"table2":         runTable2,
	"table3":         runTable3,
	"table4":         runTable4,
	"fig6":           runFig6,
	"table5":         runTable5,
	"table6":         runTable6,
	"table7":         runTable7,
	"ablation_fd":    runAblationFD,
	"ablation_depth": runAblationDepth,
	"ablation_block": runAblationBlock,
	"ablation_fixed": runAblationFixed,
}

// order fixes the presentation sequence for Experiments().
var order = []string{
	"fig1a", "fig1b", "table1", "fig3a", "fig3b", "fig4", "fig5",
	"table2", "table3", "table4", "fig6", "table5", "table6", "table7",
	"ablation_fd", "ablation_depth", "ablation_block", "ablation_fixed",
}

// Experiments lists all experiment IDs in presentation order.
func Experiments() []string {
	out := append([]string(nil), order...)
	// Defensive: include any registered id missing from the order list.
	for id := range registry {
		found := false
		for _, o := range out {
			if o == id {
				found = true
				break
			}
		}
		if !found {
			out = append(out, id)
		}
	}
	return out
}

// RunContext executes one experiment by ID. The experiment's simulated
// queries run under ctx, so cancellation stops the run at the next query
// boundary.
func RunContext(ctx context.Context, id string, cfg Config) (*Report, error) {
	r, ok := registry[id]
	if !ok {
		ids := Experiments()
		sort.Strings(ids)
		return nil, fmt.Errorf("bench: unknown experiment %q (have %s)", id, strings.Join(ids, ", "))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg.ctx = ctx
	return r(cfg)
}

// --- dataset memoization ---------------------------------------------------

// Generation and retrieval joins are deterministic in (name, scale, seed),
// so experiments sharing a dataset reuse one copy.
var (
	memoMu  sync.Mutex
	relMemo = map[string]*datagen.Relational{}
	ragMemo = map[string]*table.Table{}
)

func memoKey(name string, cfg Config) string {
	return fmt.Sprintf("%s|%g|%d", name, cfg.scale(), cfg.Seed)
}

// relational returns the generated table dataset.
func relational(name string, cfg Config) (*datagen.Relational, error) {
	memoMu.Lock()
	defer memoMu.Unlock()
	k := memoKey(name, cfg)
	if d, ok := relMemo[k]; ok {
		return d, nil
	}
	d, err := datagen.RelationalByName(name, cfg.genOpt())
	if err != nil {
		return nil, err
	}
	relMemo[k] = d
	return d, nil
}

// ragTable returns the retrieval-joined (question, contexts) table.
func ragTable(name string, cfg Config) (*table.Table, error) {
	memoMu.Lock()
	defer memoMu.Unlock()
	k := memoKey(name, cfg)
	if t, ok := ragMemo[k]; ok {
		return t, nil
	}
	d, err := datagen.RAGByName(name, cfg.genOpt())
	if err != nil {
		return nil, err
	}
	t, err := query.BuildRAGTable(d)
	if err != nil {
		return nil, err
	}
	ragMemo[k] = t
	return t, nil
}

// inputTable resolves a dataset name to the table its queries run over.
func inputTable(name string, cfg Config) (*table.Table, error) {
	for _, r := range datagen.RAGNames {
		if r == name {
			return ragTable(name, cfg)
		}
	}
	d, err := relational(name, cfg)
	if err != nil {
		return nil, err
	}
	return d.Table, nil
}

// --- small format helpers ---------------------------------------------------

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
func ratio(a, b float64) string {
	if b == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", a/b)
}
