package bench

import (
	"fmt"

	"repro/internal/bootstrap"
	"repro/internal/core"
	"repro/internal/llmsim"
	"repro/internal/oracle"
	"repro/internal/query"
	"repro/internal/table"
	"repro/internal/tokenizer"
)

// runFig1a reproduces the Fig. 1a case study: a table whose first field is
// unique and whose remaining m−1 fields are constant (all unit lengths). The
// fixed original ordering scores PHC 0; per-row reordering recovers
// (n−1)(m−1).
func runFig1a(cfg Config) (*Report, error) {
	n, m := 200, 5
	t := table.New("f0", "f1", "f2", "f3", "f4")
	for i := 0; i < n; i++ {
		t.MustAppendRow(fmt.Sprintf("u%d", i), "A", "B", "C", "D")
	}
	orig := core.PHC(core.Original(t), table.UnitLen)
	res := core.GGR(t, core.GGROptions{LenOf: table.UnitLen})
	if err := core.Verify(t, res.Schedule); err != nil {
		return nil, err
	}
	want := int64((n - 1) * (m - 1))
	return &Report{
		ID:      "fig1a",
		Title:   "Case study: distinct values in the first field (unit lengths)",
		Columns: []string{"ordering", "PHC", "theory"},
		Rows: [][]string{
			{"fixed original", fmt.Sprint(orig), "0"},
			{"GGR (per-row)", fmt.Sprint(res.PHC), fmt.Sprint(want)},
		},
		Notes: []string{fmt.Sprintf("n=%d rows, m=%d fields; paper bound: (n-1)(m-1) = %d", n, m, want)},
	}, nil
}

// runFig1b reproduces Fig. 1b: 3x rows, 3 fields, one disjoint group of x
// identical values per field. Any fixed field order is stuck at x−1; per-row
// reordering reaches 3(x−1) — the m-fold gap of Sec. 3.2.
func runFig1b(cfg Config) (*Report, error) {
	x := 50
	t := table.New("f0", "f1", "f2")
	uid := 0
	fresh := func() string { uid++; return fmt.Sprintf("u%d", uid) }
	for g := 0; g < 3; g++ {
		for i := 0; i < x; i++ {
			cells := []string{fresh(), fresh(), fresh()}
			cells[g] = fmt.Sprintf("G%d", g)
			t.MustAppendRow(cells...)
		}
	}
	fixed := core.PHC(core.BestFixed(t, table.UnitLen), table.UnitLen)
	res := core.GGR(t, core.GGROptions{LenOf: table.UnitLen})
	if err := core.Verify(t, res.Schedule); err != nil {
		return nil, err
	}
	return &Report{
		ID:      "fig1b",
		Title:   "Case study: disjoint value groups per field (m = 3, unit lengths)",
		Columns: []string{"ordering", "PHC", "theory"},
		Rows: [][]string{
			{"best fixed order", fmt.Sprint(fixed), fmt.Sprint(x - 1)},
			{"GGR (per-row)", fmt.Sprint(res.PHC), fmt.Sprint(3 * (x - 1))},
		},
		Notes: []string{fmt.Sprintf("x=%d; per-row reordering is m=3 times better", x)},
	}, nil
}

// latencyRow runs one query under the three main baselines and formats a
// figure row: runtimes plus the paper's two speedup columns.
func latencyRow(cfg Config, spec query.Spec, tbl *table.Table, model llmsim.ModelConfig, cluster llmsim.Cluster) ([]string, error) {
	jct := map[query.Policy]float64{}
	for _, p := range query.Policies {
		res, err := query.RunContext(cfg.ctx, spec, tbl, cfg.queryConfig(p, model, cluster))
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", spec.Name, p, err)
		}
		jct[p] = res.JCT
	}
	return []string{
		spec.Dataset,
		f1(jct[query.NoCache]),
		f1(jct[query.CacheOriginal]),
		f1(jct[query.CacheGGR]),
		ratio(jct[query.NoCache], jct[query.CacheGGR]),
		ratio(jct[query.CacheOriginal], jct[query.CacheGGR]),
	}, nil
}

var latencyColumns = []string{
	"dataset", "NoCache(s)", "Cache(Orig)(s)", "Cache(GGR)(s)",
	"GGR vs NoCache", "GGR vs Orig",
}

// runFig3a reproduces Fig. 3a: end-to-end latency of the five LLM filter
// queries under the three baselines (Llama-3-8B, 1×L4).
func runFig3a(cfg Config) (*Report, error) {
	rep := &Report{
		ID:      "fig3a",
		Title:   "Filter queries, Llama-3-8B on 1xL4 (virtual seconds)",
		Columns: latencyColumns,
		Notes:   []string{"paper: 2.1-3.8x over NoCache, 1.8-3.0x over Cache(Original)"},
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
		row, err := latencyRow(cfg, spec, tbl, llmsim.Llama3_8B, llmsim.SingleL4)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// runFig3b reproduces Fig. 3b: projection queries on the five relational
// datasets plus the two RAG queries.
func runFig3b(cfg Config) (*Report, error) {
	rep := &Report{
		ID:      "fig3b",
		Title:   "Projection and RAG queries, Llama-3-8B on 1xL4 (virtual seconds)",
		Columns: latencyColumns,
		Notes:   []string{"paper: 1.5-3.4x over Cache(Original), 1.9-3.7x over NoCache"},
	}
	type q struct {
		ds string
		ty query.Type
	}
	cases := []q{
		{"Movies", query.Projection}, {"Products", query.Projection},
		{"BIRD", query.Projection}, {"PDMX", query.Projection},
		{"Beer", query.Projection}, {"FEVER", query.RAGQA}, {"SQuAD", query.RAGQA},
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
		row, err := latencyRow(cfg, spec, tbl, llmsim.Llama3_8B, llmsim.SingleL4)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// runFig4 reproduces Fig. 4: multi-LLM invocation (T3) and aggregation (T4)
// on Movies and Products.
func runFig4(cfg Config) (*Report, error) {
	rep := &Report{
		ID:      "fig4",
		Title:   "Multi-LLM invocation and aggregation, Llama-3-8B on 1xL4 (virtual seconds)",
		Columns: append([]string{"query"}, latencyColumns[1:]...),
		Notes:   []string{"paper: 1.7-2.8x over Cache(Original), 2.7-3.7x over NoCache"},
	}
	type q struct {
		ds string
		ty query.Type
		id string
	}
	cases := []q{
		{"Movies", query.MultiLLM, "Movies (T3)"}, {"Products", query.MultiLLM, "Products (T3)"},
		{"Movies", query.Aggregation, "Movies (T4)"}, {"Products", query.Aggregation, "Products (T4)"},
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
		row, err := latencyRow(cfg, spec, tbl, llmsim.Llama3_8B, llmsim.SingleL4)
		if err != nil {
			return nil, err
		}
		row[0] = c.id
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// runFig5 reproduces Fig. 5: filter queries with Llama-3-70B on 8×L4 under
// tensor parallelism, Cache(Original) vs Cache(GGR).
func runFig5(cfg Config) (*Report, error) {
	rep := &Report{
		ID:      "fig5",
		Title:   "Filter queries, Llama-3-70B on 8xL4 (virtual seconds)",
		Columns: []string{"dataset", "Cache(Orig)(s)", "Cache(GGR)(s)", "speedup"},
		Notes:   []string{"paper: 1.9-3.3x over Cache(Original)"},
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
		jct := map[query.Policy]float64{}
		for _, p := range []query.Policy{query.CacheOriginal, query.CacheGGR} {
			res, err := query.RunContext(cfg.ctx, spec, tbl, cfg.queryConfig(p, llmsim.Llama3_70B, llmsim.EightL4))
			if err != nil {
				return nil, err
			}
			jct[p] = res.JCT
		}
		rep.Rows = append(rep.Rows, []string{
			ds, f1(jct[query.CacheOriginal]), f1(jct[query.CacheGGR]),
			ratio(jct[query.CacheOriginal], jct[query.CacheGGR]),
		})
	}
	return rep, nil
}

// runFig6 reproduces the Fig. 6 accuracy study: exact-match accuracy of the
// original vs GGR orderings for the five filter queries plus the FEVER RAG
// query, across three models, with 10k-run bootstrap medians.
func runFig6(cfg Config) (*Report, error) {
	rep := &Report{
		ID:      "fig6",
		Title:   "Accuracy, original vs GGR ordering (bootstrap medians)",
		Columns: []string{"model", "dataset", "orig median", "GGR median", "delta"},
		Notes: []string{
			fmt.Sprintf("%d bootstrap resamples; paper: deltas within ±5%% except FEVER on 8B (+14.2%%)", cfg.reps()),
		},
	}
	models := []oracle.Profile{oracle.Llama8B, oracle.Llama70B, oracle.GPT4o}
	datasets := []string{"Movies", "Products", "BIRD", "PDMX", "Beer", "FEVER"}
	for _, prof := range models {
		for _, ds := range datasets {
			tbl, err := inputTable(ds, cfg)
			if err != nil {
				return nil, err
			}
			var spec query.Spec
			if ds == "FEVER" {
				spec, err = query.ForDataset(ds, query.RAGQA)
			} else {
				spec, err = query.ForDataset(ds, query.Filter)
			}
			if err != nil {
				return nil, err
			}
			origMed, err := scheduleAccuracy(spec, tbl, core.Original(tbl), prof, cfg)
			if err != nil {
				return nil, err
			}
			ggrSched := core.GGR(tbl, core.DefaultGGROptions(tokenizer.Count)).Schedule
			ggrMed, err := scheduleAccuracy(spec, tbl, ggrSched, prof, cfg)
			if err != nil {
				return nil, err
			}
			rep.Rows = append(rep.Rows, []string{
				prof.Name, ds, pct(origMed), pct(ggrMed),
				fmt.Sprintf("%+.1f%%", 100*(ggrMed-origMed)),
			})
		}
	}
	return rep, nil
}

// scheduleAccuracy bootstraps exact-match accuracy of a schedule's answers.
func scheduleAccuracy(spec query.Spec, tbl *table.Table, sched *core.Schedule, prof oracle.Profile, cfg Config) (float64, error) {
	answers := query.OracleAnswers(spec, tbl, sched, prof)
	labels, ok := tbl.Hidden("label")
	if !ok {
		return 0, fmt.Errorf("bench: dataset %s has no labels", spec.Dataset)
	}
	correct := make([]bool, len(answers))
	for i := range answers {
		correct[i] = answers[i] == labels[i]
	}
	res, err := bootstrap.Accuracy(correct, cfg.reps(), cfg.Seed+int64(len(spec.Name)))
	if err != nil {
		return 0, err
	}
	return res.Median, nil
}
