package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	llmq "repro"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/llmsim"
	"repro/internal/query"
	"repro/internal/table"
	"repro/internal/tokenizer"
)

// batchPolicies are the two policies every query runs under: the paper's
// method and the baseline its headline speed-up is measured against.
var batchPolicies = []query.Policy{query.CacheGGR, query.CacheOriginal}

// batchTables generates one pass's inputs at the given dataset scale (1.0 =
// the paper's sizes): the five relational datasets and the two
// retrieval-joined RAG tables, all from one table seed.
func batchTables(scale float64, seed int64) (map[string]*table.Table, error) {
	tabs := map[string]*table.Table{}
	for _, q := range llmq.Queries() {
		if tabs[q.Dataset] != nil {
			continue
		}
		gen := llmq.Dataset
		if q.Type == query.RAGQA {
			gen = llmq.RAGDataset
		}
		t, err := gen(q.Dataset, scale, seed)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", q.Dataset, err)
		}
		tabs[q.Dataset] = t
	}
	return tabs, nil
}

// batchConfig is the library-path execution config: the paper's main setup
// (Llama-3-8B on one L4, the defaults) with the KV pool shrunk with the data,
// as internal/bench does, so the eviction pressure behind the paper's
// cache-original hit rates is kept.
func batchConfig(scale float64, p query.Policy, be backend.Backend) query.Config {
	cost := llmsim.CostModel{Model: llmsim.Llama3_8B, Cluster: llmsim.SingleL4}
	return query.Config{Policy: p, KVPoolBlocks: max(128, int64(float64(cost.KVPoolBlocks(16))*scale)), Backend: be}
}

// passResult is the virtual-clock outcome of one pass under cache-ggr — the
// part a same-seed re-run must reproduce exactly.
type passResult struct {
	jct     float64
	prompt  int64
	matched int64
	hash    uint64 // over every query's outputs, in order
	// solverMs is QueryResult.SolverSeconds of each dataset's T1 (filter)
	// query — Table 5's rows.
	solverMs map[string]float64
}

func (p passResult) hitRate() float64 { return ratio(float64(p.matched), float64(p.prompt)) }

type batchSession struct {
	scale float64
	seed  int64
	rec   *recorder
	be    backend.Backend // nil (the library default) unless traced
	tabs  map[string]*table.Table
	// spans is the traced run's backend decorator, nil otherwise.
	spans *spanBackend

	passes int64
	first  passResult // pass 0 under cache-ggr
}

func setupBatch(scale float64) func(context.Context, int64, *recorder) (session, error) {
	return func(_ context.Context, seed int64, rec *recorder) (session, error) {
		tabs, err := batchTables(scale, seed)
		if err != nil {
			return nil, err
		}
		s := &batchSession{scale: scale, seed: seed, rec: rec, tabs: tabs}
		if rec != nil {
			s.spans = &spanBackend{inner: backend.NewSim(), rec: rec, name: "backend.run_batch"}
			s.be = s.spans
		}
		return s, nil
	}
}

// runPass runs the paper's 16 queries over tabs under cfg, one RunQuery call
// per op, folding each op's latency into d and returning the pass's
// virtual-clock result. rec is the traced run's recorder, nil otherwise.
func runPass(ctx context.Context, tabs map[string]*table.Table, cfg query.Config, opBase int64, d *drive, rec *recorder) passResult {
	res := passResult{solverMs: map[string]float64{}}
	h := fnv.New64a()
	for i, q := range llmq.Queries() {
		op := opBase + int64(i)
		d.count.Attempted++
		opSpan := rec.begin("loadgen.op", 0, op)
		qctx := ctx
		if rec != nil {
			qctx = withSpanRef(ctx, spanRef{span: opSpan, op: op})
		}
		t0 := time.Now()
		r, err := llmq.RunQueryContext(qctx, q, tabs[q.Dataset], cfg)
		lat := time.Since(t0)
		rec.end(opSpan)
		if err == nil && len(r.Outputs) == 0 {
			err = fmt.Errorf("no outputs")
		}
		if err != nil {
			d.fail(fmt.Errorf("%s under %s: %w", q.Name, cfg.Policy, err))
			continue
		}
		d.count.OK++
		d.latMs = append(d.latMs, float64(lat)/1e6)
		res.jct += r.JCT
		for _, st := range r.Stages {
			res.prompt += st.Metrics.PromptTokens
			res.matched += st.Metrics.MatchedTokens
			d.virt.LLMCalls += int64(st.ModelCalls)
		}
		for _, o := range r.Outputs {
			h.Write([]byte(o))
			h.Write([]byte{0})
		}
		if q.Type == query.Filter {
			res.solverMs[q.Dataset] = r.SolverSeconds * 1e3
		}
	}
	res.hash = h.Sum64()
	return res
}

// drive runs whole passes — every query under both policies — over tables
// seeded seed, seed+1, …; the next pass's tables are generated between the
// timed windows. A time budget starts another pass while at least half of
// one still fits, so the op mix of a run is always whole passes.
func (s *batchSession) drive(ctx context.Context, b budget) *drive {
	d := &drive{}
	perPass := int64(len(llmq.Queries()) * len(batchPolicies))
	tabs := s.tabs
	for {
		d.m.start()
		for pi, p := range batchPolicies {
			res := runPass(ctx, tabs, batchConfig(s.scale, p, s.be), s.passes*perPass+int64(pi*len(llmq.Queries())), d, s.rec)
			switch p {
			case query.CacheGGR:
				d.virt.JCT += res.jct
				d.virt.PromptTokens += res.prompt
				d.virt.MatchedTokens += res.matched
				if s.passes == 0 {
					s.first = res
				}
			case query.CacheOriginal:
				d.jctOriginal += res.jct
			}
		}
		d.m.stop()
		s.passes++
		if b.Ops > 0 {
			if s.passes*perPass >= b.Ops {
				break
			}
		} else if meanPass := d.m.Wall.Seconds() / float64(s.passes); d.m.Wall.Seconds()+meanPass/2 > b.Seconds {
			break
		}
		var err error
		if tabs, err = batchTables(s.scale, s.seed+s.passes); err != nil {
			d.count.Attempted++
			d.fail(err)
			break
		}
	}
	d.count.WallS = d.m.Wall.Seconds()
	return d
}

// check re-runs pass 0 under cache-ggr and requires the virtual clock and
// the outputs to reproduce exactly, then re-solves every dataset and holds
// each schedule to core.Verify.
func (s *batchSession) check(ctx context.Context, d *drive) (int64, []string) {
	var checks int64
	var bad []string
	scratch := &drive{}
	again := runPass(ctx, s.tabs, batchConfig(s.scale, query.CacheGGR, nil), 0, scratch, nil)
	checks += scratch.count.Attempted
	bad = append(bad, scratch.errs...)
	if again.jct != s.first.jct {
		bad = append(bad, fmt.Sprintf("replay of pass 0: jct_virtual_s %v, first run %v", again.jct, s.first.jct))
	}
	if again.hitRate() != s.first.hitRate() {
		bad = append(bad, fmt.Sprintf("replay of pass 0: prefix_hit_rate %v, first run %v", again.hitRate(), s.first.hitRate()))
	}
	if again.hash != s.first.hash {
		bad = append(bad, fmt.Sprintf("replay of pass 0: output hash %x, first run %x", again.hash, s.first.hash))
	}
	checks += 3
	for name, t := range s.tabs {
		checks++
		res := core.GGR(t, core.DefaultGGROptions(tokenizer.Count))
		if err := core.Verify(t, res.Schedule); err != nil {
			bad = append(bad, fmt.Sprintf("GGR schedule of %s: %v", name, err))
		}
	}
	return checks, bad
}

func (s *batchSession) opCounts() map[string]int64 {
	return map[string]int64{"passes": s.passes, "queries": int64(len(llmq.Queries())), "policies": int64(len(batchPolicies))}
}

// warmup: the library path has nothing to warm; set-up is table generation.
func (s *batchSession) warmup() phase { return phase{} }

func (s *batchSession) close(context.Context) {}
