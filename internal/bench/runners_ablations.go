package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/llmsim"
	"repro/internal/query"
	"repro/internal/table"
	"repro/internal/tokenizer"
)

// runAblationFD isolates the functional-dependency inference (Sec. 4.2.1):
// GGR with declared FDs vs GGR with FDs stripped, on the datasets that have
// them. FDs pull correlated fields into the prefix in one step, improving
// both PHC and solver time.
func runAblationFD(cfg Config) (*Report, error) {
	rep := &Report{
		ID:      "ablation_fd",
		Title:   "GGR with vs without functional dependencies",
		Columns: []string{"dataset", "PHC (no FD)", "PHC (FD)", "PHC gain", "solver no-FD (s)", "solver FD (s)"},
	}
	for _, ds := range []string{"Movies", "Products", "BIRD", "PDMX", "Beer"} {
		d, err := relational(ds, cfg)
		if err != nil {
			return nil, err
		}
		run := func(useFDs bool) (int64, float64) {
			opt := core.DefaultGGROptions(tokenizer.Count)
			opt.UseFDs = useFDs
			start := time.Now()
			res := core.GGR(d.Table, opt)
			return res.PHC, time.Since(start).Seconds()
		}
		noFD, tNo := run(false)
		withFD, tFD := run(true)
		gain := "0.0%"
		if noFD > 0 {
			gain = fmt.Sprintf("%+.1f%%", 100*(float64(withFD)/float64(noFD)-1))
		}
		rep.Rows = append(rep.Rows, []string{
			ds, fmt.Sprint(noFD), fmt.Sprint(withFD), gain,
			fmt.Sprintf("%.3f", tNo), fmt.Sprintf("%.3f", tFD),
		})
	}
	return rep, nil
}

// runAblationDepth sweeps the early-stopping row depth (Sec. 4.2.2) on the
// Movies filter query: deeper recursion buys hit rate at solver-time cost
// until the statistics fallback is already doing the work.
func runAblationDepth(cfg Config) (*Report, error) {
	rep := &Report{
		ID:      "ablation_depth",
		Title:   "GGR early-stopping depth sweep (Movies filter)",
		Columns: []string{"row depth", "col depth", "PHC", "data hit rate", "solver (s)"},
	}
	d, err := relational("Movies", cfg)
	if err != nil {
		return nil, err
	}
	for _, depth := range []struct{ row, col int }{
		{1, 1}, {2, 1}, {4, 2}, {8, 4}, {16, 8},
	} {
		opt := core.DefaultGGROptions(tokenizer.Count)
		opt.MaxRowDepth = depth.row
		opt.MaxColDepth = depth.col
		start := time.Now()
		res := core.GGR(d.Table, opt)
		elapsed := time.Since(start).Seconds()
		if err := core.Verify(d.Table, res.Schedule); err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(depth.row), fmt.Sprint(depth.col),
			fmt.Sprint(res.PHC),
			pct(core.Hits(res.Schedule, tokenizer.Count).Rate()),
			fmt.Sprintf("%.3f", elapsed),
		})
	}
	return rep, nil
}

// runAblationBlock sweeps the KV cache block size on the BIRD filter query:
// smaller blocks match finer prefix granularity (higher hit rates) at the
// cost of more cache metadata; 16 is vLLM's default.
func runAblationBlock(cfg Config) (*Report, error) {
	rep := &Report{
		ID:      "ablation_block",
		Title:   "KV cache block size sweep (BIRD filter, GGR ordering)",
		Columns: []string{"block size", "hit rate", "JCT (s)"},
	}
	tbl, err := inputTable("BIRD", cfg)
	if err != nil {
		return nil, err
	}
	spec, err := query.ForDataset("BIRD", query.Filter)
	if err != nil {
		return nil, err
	}
	sched := core.GGR(tbl, core.DefaultGGROptions(tokenizer.Count)).Schedule
	cap16 := cfg.poolBlocks(llmsim.Llama3_8B, llmsim.SingleL4) // blocks of 16 tokens
	for _, bs := range []int{8, 16, 32, 64, 128} {
		capacity := int64(0)
		if cap16 > 0 {
			capacity = cap16 * 16 / int64(bs) // same token budget at this block size
		}
		m, err := replaySchedule(spec, tbl, sched, bs, capacity)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(bs), pct(m.HitRate()), f1(m.JCT),
		})
	}
	return rep, nil
}

// replaySchedule runs a prepared schedule through the engine at a given
// block size.
func replaySchedule(spec query.Spec, tbl *table.Table, sched *core.Schedule, blockSize int, capacity int64) (llmsim.Metrics, error) {
	prompts := query.PromptTokens(spec.UserPrompt, tbl, sched, nil)
	reqs := make([]*llmsim.Request, len(sched.Rows))
	for i, row := range sched.Rows {
		reqs[i] = &llmsim.Request{ID: row.Source, Prompt: prompts[i], OutTokens: spec.OutTokensFor(row.Source)}
	}
	eng := llmsim.New(llmsim.Config{
		Cost:             llmsim.CostModel{Model: llmsim.Llama3_8B, Cluster: llmsim.SingleL4},
		CacheEnabled:     true,
		BlockSize:        blockSize,
		CapacityOverride: capacity,
	})
	return eng.Run(reqs)
}

// runAblationFixed compares the best single fixed field order (the Sec. 3.2
// strawman) against per-row GGR on every dataset: the gap is the value of
// per-row reordering.
func runAblationFixed(cfg Config) (*Report, error) {
	rep := &Report{
		ID:      "ablation_fixed",
		Title:   "Best fixed field order vs per-row GGR (data-token hit rate)",
		Columns: []string{"dataset", "original", "best fixed", "GGR", "GGR vs fixed"},
	}
	for _, ds := range []string{"Movies", "Products", "BIRD", "PDMX", "Beer", "FEVER", "SQuAD"} {
		tbl, err := inputTable(ds, cfg)
		if err != nil {
			return nil, err
		}
		orig := core.Hits(core.Original(tbl), tokenizer.Count).Rate()
		fixed := core.Hits(core.BestFixed(tbl, tokenizer.Count), tokenizer.Count).Rate()
		ggr := core.Hits(core.GGR(tbl, core.DefaultGGROptions(tokenizer.Count)).Schedule, tokenizer.Count).Rate()
		rep.Rows = append(rep.Rows, []string{
			ds, pct(orig), pct(fixed), pct(ggr),
			fmt.Sprintf("%+.1f pts", 100*(ggr-fixed)),
		})
	}
	return rep, nil
}
