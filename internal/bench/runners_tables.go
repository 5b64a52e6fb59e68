package bench

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/llmsim"
	"repro/internal/pricing"
	"repro/internal/query"
	"repro/internal/table"
	"repro/internal/tokenizer"
)

// runTable1 reproduces Table 1: dataset shapes and average input/output
// token lengths as measured over the generated data and actual prompts.
func runTable1(cfg Config) (*Report, error) {
	rep := &Report{
		ID:      "table1",
		Title:   "Datasets: rows, fields, average input/output tokens",
		Columns: []string{"dataset", "n_rows", "n_fields", "input_avg", "output_avg", "query types"},
		Notes: []string{
			"input_avg measured over full filter/RAG prompts (system prompt + question + JSON row)",
			"paper (full scale): Movies 15000/8/276, Products 14890/8/377, BIRD 14920/4/765, PDMX 10000/57/738, Beer 28479/8/156, SQuAD 22665/5/1047, FEVER 19929/5/1302",
		},
	}
	type entry struct {
		name  string
		ty    query.Type
		types string
	}
	cases := []entry{
		{"Movies", query.Filter, "T1-T4"}, {"Products", query.Filter, "T1-T4"},
		{"BIRD", query.Filter, "T1, T2"}, {"PDMX", query.Filter, "T1, T2"},
		{"Beer", query.Filter, "T1, T2"},
		{"SQuAD", query.RAGQA, "T5"}, {"FEVER", query.RAGQA, "T5"},
	}
	for _, c := range cases {
		tbl, err := inputTable(c.name, cfg)
		if err != nil {
			return nil, err
		}
		spec, err := query.ForDataset(c.name, c.ty)
		if err != nil {
			return nil, err
		}
		var inTok, outTok int64
		sched := core.Original(tbl)
		for _, row := range sched.Rows {
			inTok += int64(tokenizer.Count(query.BuildPrompt(spec.UserPrompt, row.Cells)))
			outTok += int64(spec.OutTokensFor(row.Source))
		}
		n := int64(tbl.NumRows())
		if n == 0 {
			return nil, fmt.Errorf("bench: dataset %s is empty", c.name)
		}
		rep.Rows = append(rep.Rows, []string{
			c.name, fmt.Sprint(tbl.NumRows()), fmt.Sprint(tbl.NumCols()),
			fmt.Sprint(inTok / n), fmt.Sprint(outTok / n), c.types,
		})
	}
	return rep, nil
}

// runTable2 reproduces Table 2: prefix hit rates (PHR) of the filter and
// RAG queries for the original ordering vs GGR, as measured by the serving
// engine's KV cache.
func runTable2(cfg Config) (*Report, error) {
	rep := &Report{
		ID:      "table2",
		Title:   "Prefix hit rate (PHR) of filter and RAG queries, original vs GGR",
		Columns: []string{"dataset", "original PHR", "GGR PHR", "gain"},
		Notes: []string{
			"paper: Original 35/27/10/12/50/11/11 -> GGR 86/83/85/57/80/67/70 (%)",
		},
	}
	rows, err := hitRateRows(cfg, llmsimDefault())
	if err != nil {
		return nil, err
	}
	rep.Rows = rows
	return rep, nil
}

// hitRateRows measures original/GGR hit rates per dataset under a given
// model setup; shared by table2 and table7.
func hitRateRows(cfg Config, setup modelSetup) ([][]string, error) {
	var out [][]string
	cases := []struct {
		ds string
		ty query.Type
	}{
		{"Movies", query.Filter}, {"Products", query.Filter}, {"BIRD", query.Filter},
		{"PDMX", query.Filter}, {"Beer", query.Filter},
		{"FEVER", query.RAGQA}, {"SQuAD", query.RAGQA},
	}
	for _, c := range cases {
		tbl, err := inputTable(c.ds, cfg)
		if err != nil {
			return nil, err
		}
		spec, err := query.ForDataset(c.ds, c.ty)
		if err != nil {
			return nil, err
		}
		hr := map[query.Policy]float64{}
		for _, p := range []query.Policy{query.CacheOriginal, query.CacheGGR} {
			res, err := query.RunContext(cfg.ctx, spec, tbl, cfg.queryConfig(p, setup.model, setup.cluster))
			if err != nil {
				return nil, err
			}
			hr[p] = res.HitRate
		}
		out = append(out, []string{
			c.ds, pct(hr[query.CacheOriginal]), pct(hr[query.CacheGGR]),
			fmt.Sprintf("%+.1f pts", 100*(hr[query.CacheGGR]-hr[query.CacheOriginal])),
		})
	}
	return out, nil
}

type modelSetup struct {
	model   llmsim.ModelConfig
	cluster llmsim.Cluster
}

func llmsimDefault() modelSetup {
	return modelSetup{model: llmsim.Llama3_8B, cluster: llmsim.SingleL4}
}

// runTable3 reproduces Table 3: measured OpenAI and Anthropic costs on the
// FEVER workload with each field value duplicated five times (the paper's
// device for clearing the providers' 1,024-token caching minimum), 1,000
// rows, GGR vs original ordering.
func runTable3(cfg Config) (*Report, error) {
	full, err := ragTable("FEVER", cfg)
	if err != nil {
		return nil, err
	}
	nRows := 1000
	if s := cfg.scale(); s < 1 {
		nRows = int(float64(nRows) * s)
		if nRows < 10 {
			nRows = 10
		}
	}
	tbl := duplicateFields(full.Head(nRows), 5)

	schedules := map[string]*core.Schedule{
		"Original": core.Original(tbl),
		"GGR":      core.GGR(tbl, core.DefaultGGROptions(tokenizer.Count)).Schedule,
	}
	spec, err := query.ForDataset("FEVER", query.RAGQA)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		ID:      "table3",
		Title:   "Measured API costs on FEVER (fields duplicated 5x, 1024-token caching minimum)",
		Columns: []string{"model", "method", "PHR", "cost ($)", "savings"},
		Notes: []string{
			fmt.Sprintf("%d rows; paper: GPT-4o-mini 62.2%% PHR / 32%% savings; Claude 3.5 Sonnet 30.6%% PHR / 21%% savings", tbl.NumRows()),
		},
	}
	for _, book := range []pricing.Book{pricing.GPT4oMini, pricing.Claude35Sonnet} {
		costs := map[string]float64{}
		for _, method := range []string{"Original", "GGR"} {
			sched := schedules[method]
			prompts := query.PromptTokens(spec.UserPrompt, sched, nil)
			outs := make([]int, len(sched.Rows))
			for i, row := range sched.Rows {
				outs[i] = spec.OutTokensFor(row.Source)
			}
			u, err := pricing.Simulate(book, prompts, outs)
			if err != nil {
				return nil, err
			}
			costs[method] = book.Cost(u)
			rep.Rows = append(rep.Rows, []string{
				book.Name, method, pct(u.HitRate()), fmt.Sprintf("%.2f", costs[method]), "",
			})
		}
		if costs["Original"] > 0 {
			rep.Rows[len(rep.Rows)-1][4] = pct(1 - costs["GGR"]/costs["Original"])
		}
	}
	return rep, nil
}

// duplicateFields repeats every cell value n times, mirroring the paper's
// "duplicate each field value five times" approximation of long production
// prompts.
func duplicateFields(t *table.Table, n int) *table.Table {
	out := table.New(t.Columns()...)
	for i := 0; i < t.NumRows(); i++ {
		cells := make([]string, t.NumCols())
		for j := 0; j < t.NumCols(); j++ {
			v := t.Cell(i, j)
			cells[j] = strings.TrimSpace(strings.Repeat(v+" ", n))
		}
		out.MustAppendRow(cells...)
	}
	return out
}

// runTable4 reproduces Table 4: estimated cost savings across datasets from
// the measured PHRs of table2 under the OpenAI and Anthropic price models.
func runTable4(cfg Config) (*Report, error) {
	rep := &Report{
		ID:      "table4",
		Title:   "Estimated cost savings from measured PHRs (GGR vs original)",
		Columns: []string{"dataset", "orig PHR", "GGR PHR", "OpenAI savings", "Anthropic savings"},
		Notes: []string{
			"paper: OpenAI 20-39%, Anthropic 48-79% across datasets",
		},
	}
	rows, err := hitRateRows(cfg, llmsimDefault())
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		ho := parsePct(r[1])
		hg := parsePct(r[2])
		rep.Rows = append(rep.Rows, []string{
			r[0], r[1], r[2],
			pct(pricing.EstimatedSavings(pricing.GPT4oMini, ho, hg)),
			pct(pricing.EstimatedSavings(pricing.Claude35Sonnet, ho, hg)),
		})
	}
	return rep, nil
}

func parsePct(s string) float64 {
	var v float64
	fmt.Sscanf(s, "%f%%", &v)
	return v / 100
}

// runTable5 reproduces Table 5: GGR solver wall-clock time per dataset under
// the paper's early-stopping configuration (row depth 4, column depth 2,
// 0.1M hit-count threshold).
func runTable5(cfg Config) (*Report, error) {
	rep := &Report{
		ID:      "table5",
		Title:   "GGR solver time (wall-clock seconds)",
		Columns: []string{"dataset", "rows", "fields", "solver (s)"},
		Notes: []string{
			"paper (full scale): 3.3/4.5/1.2/12.6/8.0/5.6/4.5 s; all under 15 s",
		},
	}
	for _, ds := range []string{"Movies", "Products", "BIRD", "PDMX", "Beer", "FEVER", "SQuAD"} {
		tbl, err := inputTable(ds, cfg)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		res := core.GGR(tbl, core.DefaultGGROptions(tokenizer.Count))
		elapsed := time.Since(start)
		if err := core.Verify(tbl, res.Schedule); err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			ds, fmt.Sprint(tbl.NumRows()), fmt.Sprint(tbl.NumCols()),
			fmt.Sprintf("%.3f", elapsed.Seconds()),
		})
	}
	return rep, nil
}

// runTable6 reproduces Appendix D.1 (Table 6): GGR vs the exact OPHR solver
// on small dataset samples. OPHR runs under a node budget (the paper used a
// two-hour timeout); for each dataset we report the largest sample that
// completed.
func runTable6(cfg Config) (*Report, error) {
	rep := &Report{
		ID:      "table6",
		Title:   "GGR vs optimal OPHR on small samples (prefix hit rate over data tokens)",
		Columns: []string{"sample", "OPHR PHR", "GGR PHR", "diff", "OPHR (s)", "GGR (s)"},
		Notes: []string{
			"paper: GGR within 2% of optimal, orders of magnitude faster",
			"OPHR bounded by a node budget standing in for the paper's 2h timeout",
		},
	}
	for _, ds := range []string{"Movies", "Products", "BIRD", "PDMX", "Beer", "FEVER", "SQuAD"} {
		tbl, err := inputTable(ds, cfg)
		if err != nil {
			return nil, err
		}
		// PDMX's 57 columns are reduced to 10 as in the paper.
		if ds == "PDMX" {
			cols := tbl.Columns()[:10]
			tbl, err = tbl.Select(cols...)
			if err != nil {
				return nil, err
			}
		}
		row, err := table6Row(ds, tbl, cfg)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

func table6Row(ds string, tbl *table.Table, cfg Config) ([]string, error) {
	for _, n := range []int{50, 25, 10} {
		if tbl.NumRows() < n {
			continue
		}
		sample := tbl.Head(n)
		start := time.Now()
		opt, err := core.OPHR(sample, core.OPHROptions{LenOf: tokenizer.Count, MaxNodes: cfg.ophrBudget()})
		optTime := time.Since(start)
		if errors.Is(err, core.ErrBudget) {
			continue // sample too large for the budget; try smaller
		}
		if err != nil {
			return nil, err
		}
		start = time.Now()
		greedy := core.GGR(sample, core.ExhaustiveGGROptions(tokenizer.Count))
		ggrTime := time.Since(start)

		optPHR := core.Hits(opt.Schedule, tokenizer.Count).Rate()
		ggrPHR := core.Hits(greedy.Schedule, tokenizer.Count).Rate()
		return []string{
			fmt.Sprintf("%s-%d", ds, n),
			pct(optPHR), pct(ggrPHR),
			fmt.Sprintf("%+.1f pts", 100*(ggrPHR-optPHR)),
			fmt.Sprintf("%.3f", optTime.Seconds()),
			fmt.Sprintf("%.4f", ggrTime.Seconds()),
		}, nil
	}
	return []string{ds + "-0", "n/a", "n/a", "n/a", "budget", "n/a"}, nil
}

// runTable7 reproduces Appendix D.2 (Table 7): the Llama-3.2-1B ablation —
// runtime ratio original/GGR and both hit rates on the filter queries.
// Ample free KV memory on the small model shrinks the relative gains even
// though hit rates match the 8B runs.
func runTable7(cfg Config) (*Report, error) {
	rep := &Report{
		ID:      "table7",
		Title:   "Llama-3.2-1B filter queries: runtime ratio and PHR",
		Columns: []string{"dataset", "runtime orig/GGR", "orig PHR", "GGR PHR"},
		Notes: []string{
			"paper: ratios 1.2-1.5x (vs 1.8-3.0x on 8B); PHRs match the 8B runs",
		},
	}
	for _, ds := range []string{"Movies", "Products", "BIRD", "PDMX", "Beer"} {
		tbl, err := inputTable(ds, cfg)
		if err != nil {
			return nil, err
		}
		spec, err := query.ForDataset(ds, query.Filter)
		if err != nil {
			return nil, err
		}
		type out struct {
			jct float64
			hr  float64
		}
		res := map[query.Policy]out{}
		for _, p := range []query.Policy{query.CacheOriginal, query.CacheGGR} {
			r, err := query.RunContext(cfg.ctx, spec, tbl, cfg.queryConfig(p, llmsim.Llama32_1B, llmsim.SingleL4))
			if err != nil {
				return nil, err
			}
			res[p] = out{jct: r.JCT, hr: r.HitRate}
		}
		rep.Rows = append(rep.Rows, []string{
			ds,
			ratio(res[query.CacheOriginal].jct, res[query.CacheGGR].jct),
			pct(res[query.CacheOriginal].hr),
			pct(res[query.CacheGGR].hr),
		})
	}
	return rep, nil
}
