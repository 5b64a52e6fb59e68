package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/llmsim"
	"repro/internal/query"
	"repro/internal/tokenizer"
)

func init() {
	registry["ablation_online"] = runAblationOnline
	registry["ablation_window"] = runAblationWindow
	order = append(order, "ablation_online", "ablation_window")
}

// runAblationOnline compares offline reordering (GGR) against online
// cache-aware scheduling (SGLang-style: admit the waiting request with the
// longest cached prefix). Online scheduling reorders rows at serve time but
// cannot reorder fields, so it recovers part — not all — of GGR's win; the
// gap is the value of the paper's offline, field-level optimization.
func runAblationOnline(cfg Config) (*Report, error) {
	rep := &Report{
		ID:    "ablation_online",
		Title: "Offline GGR vs online cache-aware scheduling (filter queries, Llama-3-8B)",
		Columns: []string{
			"dataset", "orig FIFO hit", "orig cache-aware hit", "GGR FIFO hit",
			"orig FIFO JCT", "orig cache-aware JCT", "GGR JCT",
		},
	}
	for _, ds := range []string{"Movies", "BIRD", "PDMX"} {
		tbl, err := inputTable(ds, cfg)
		if err != nil {
			return nil, err
		}
		spec, err := query.ForDataset(ds, query.Filter)
		if err != nil {
			return nil, err
		}
		pool := cfg.poolBlocks(llmsim.Llama3_8B, llmsim.SingleL4)

		type outcome struct {
			hit float64
			jct float64
		}
		run := func(sched *core.Schedule, policy llmsim.SchedPolicy) (outcome, error) {
			m, err := replayWithSched(spec, sched, policy, pool)
			if err != nil {
				return outcome{}, err
			}
			return outcome{hit: m.HitRate(), jct: m.JCT}, nil
		}
		orig := core.Original(tbl)
		ggr := core.GGR(tbl, core.DefaultGGROptions(tokenizer.Count)).Schedule

		fifo, err := run(orig, llmsim.FIFO)
		if err != nil {
			return nil, err
		}
		aware, err := run(orig, llmsim.CacheAware)
		if err != nil {
			return nil, err
		}
		offline, err := run(ggr, llmsim.FIFO)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			ds, pct(fifo.hit), pct(aware.hit), pct(offline.hit),
			f1(fifo.jct), f1(aware.jct), f1(offline.jct),
		})
	}
	return rep, nil
}

// replayWithSched runs a prepared schedule under a given admission policy.
func replayWithSched(spec query.Spec, sched *core.Schedule, policy llmsim.SchedPolicy, capacity int64) (llmsim.Metrics, error) {
	prompts := query.PromptTokens(spec.UserPrompt, sched, nil)
	reqs := make([]*llmsim.Request, len(sched.Rows))
	for i, row := range sched.Rows {
		reqs[i] = &llmsim.Request{ID: row.Source, Prompt: prompts[i], OutTokens: spec.OutTokensFor(row.Source)}
	}
	eng := llmsim.New(llmsim.Config{
		Cost:             llmsim.CostModel{Model: llmsim.Llama3_8B, Cluster: llmsim.SingleL4},
		CacheEnabled:     true,
		CapacityOverride: capacity,
		Sched:            policy,
	})
	return eng.Run(reqs)
}

// runAblationWindow sweeps the windowed-GGR window size on the BIRD filter
// query: the streaming deployment mode trades cross-window sharing for
// bounded solver memory.
func runAblationWindow(cfg Config) (*Report, error) {
	rep := &Report{
		ID:      "ablation_window",
		Title:   "Windowed GGR: window size vs hit rate and solver time (BIRD filter)",
		Columns: []string{"window", "data hit rate", "PHC", "solver (s)"},
	}
	tbl, err := inputTable("BIRD", cfg)
	if err != nil {
		return nil, err
	}
	n := tbl.NumRows()
	for _, w := range []int{n / 32, n / 8, n / 2, n} {
		if w < 1 {
			w = 1
		}
		start := time.Now()
		res := core.GGRWindowed(tbl, core.DefaultGGROptions(tokenizer.Count), w)
		elapsed := time.Since(start).Seconds()
		if err := core.Verify(tbl, res.Schedule); err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, []string{
			fmt.Sprint(w),
			pct(core.Hits(res.Schedule, tokenizer.Count).Rate()),
			fmt.Sprint(res.PHC),
			fmt.Sprintf("%.3f", elapsed),
		})
	}
	return rep, nil
}
