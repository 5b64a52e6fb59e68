package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"time"

	llmq "repro"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/kvcache"
	"repro/internal/llmsim"
	"repro/internal/query"
	llmruntime "repro/internal/runtime"
	"repro/internal/sqlfront"
	"repro/internal/table"
	"repro/internal/tokenizer"
)

// The per-layer metrics of a traced run. Layers are this repo's modules.
// "Seam" metrics roll up spans the decorators recorded; "counter" metrics
// are deltas of snapshots the program already publishes; "direct" metrics
// come from calling a layer's public function from here, single goroutine,
// on inputs captured from the workload.

// replayCap bounds the statements re-executed for the direct measurements.
const replayCap = 96

// stageCap bounds the captured stage tables / BatchSpecs replayed.
const stageCap = 256

// stage is one captured LLM stage: what query.RunStageContext was handed.
type stage struct {
	spec query.Spec
	tbl  *table.Table
	cfg  query.Config
}

func cloneBatch(spec backend.BatchSpec) backend.BatchSpec {
	out := spec
	out.Requests = make([]*llmsim.Request, len(spec.Requests))
	for i, r := range spec.Requests {
		out.Requests[i] = &llmsim.Request{ID: r.ID, Prompt: r.Prompt, OutTokens: r.OutTokens}
	}
	return out
}

// timed runs fn n times on this goroutine and reports the mean wall time,
// heap allocations and allocated bytes per call.
func timed(n int, fn func()) (per time.Duration, allocs, bytes float64) {
	if n <= 0 {
		return 0, 0, 0
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&b)
	return wall / time.Duration(n), float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// --- seam and counter roll-ups shared by every workload ------------------

// procLayers reports the Go runtime of the process over the timed phase.
func procLayers(out map[string]float64, d *drive) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	out["proc.gc_cycles"] = float64(d.m.GCCycles)
	out["proc.gc_pause_ms_total"] = ms(d.m.GCPause)
	out["proc.heap_inuse_mb_end"] = float64(m.HeapInuse) / (1 << 20)
}

// loadgenLayers reports the benchmark's own client.
func loadgenLayers(out map[string]float64, d *drive, spans []span) {
	out["loadgen.latency_p99_ms"] = quantile(sortedCopy(d.latMs), 0.99)
	handle := map[int64]int64{}
	for _, s := range spans {
		if s.Name == "server.handle" {
			handle[s.Op] = s.dur()
		}
	}
	var over []float64
	for _, s := range spans {
		if s.Name == "loadgen.op" {
			if h, ok := handle[s.Op]; ok {
				over = append(over, float64(s.dur()-h)/1e3)
			}
		}
	}
	out["loadgen.client_overhead_us"] = median(over)
}

// backendLayers reports the backend seam from its decorator.
func backendLayers(out map[string]float64, b *spanBackend, st spanStats) {
	if b == nil {
		return
	}
	n := float64(b.batches.Load())
	out["backend.run_batch_ms_p50"] = median(st.durMs["backend.run_batch"])
	out["backend.batches"] = n
	out["backend.requests_per_batch"] = ratio(float64(b.requests.Load()), n)
	out["backend.prompt_tokens_per_batch"] = ratio(float64(b.promptTokens.Load()), n)
}

// runtimeCounterLayers reports the runtime's own counters over the timed
// phase, as deltas of Runtime.Metrics() snapshots.
func runtimeCounterLayers(out map[string]float64, before, after llmruntime.Metrics, ops int64) {
	d := func(a, b int64) float64 { return float64(a - b) }
	planHits, planMiss := d(after.PlanCacheHits, before.PlanCacheHits), d(after.PlanCacheMisses, before.PlanCacheMisses)
	hits, miss := d(after.CacheHits, before.CacheHits), d(after.CacheMisses, before.CacheMisses)
	batches := d(after.Batches, before.Batches)
	reHits, reMiss := d(after.ReorderCacheHits, before.ReorderCacheHits), d(after.ReorderCacheMisses, before.ReorderCacheMisses)
	prHits, prMiss := d(after.PromptCacheHits, before.PromptCacheHits), d(after.PromptCacheMisses, before.PromptCacheMisses)
	out["runtime.plan_cache_hit_ratio"] = ratio(planHits, planHits+planMiss)
	out["runtime.result_cache_hit_ratio"] = ratio(hits, hits+miss)
	out["runtime.inflight_dedup_rows"] = d(after.InflightDeduped, before.InflightDeduped)
	out["runtime.coalesced_run_ratio"] = ratio(d(after.CoalescedRuns, before.CoalescedRuns), batches)
	out["runtime.rows_per_batch"] = ratio(d(after.LLMCalls, before.LLMCalls), batches)
	out["runtime.batches_per_stmt"] = ratio(batches, float64(ops))
	out["runtime.reorder_cache_hit_ratio"] = ratio(reHits, reHits+reMiss)
	out["runtime.prompt_cache_hit_ratio"] = ratio(prHits, prHits+prMiss)
}

// --- direct replays --------------------------------------------------------

// sqlReplay is what re-executing the sampled statements on the plain
// single-process path measured and captured.
type sqlReplay struct {
	execMs       []float64 // DB.ExecContext wall per statement
	relationalMs []float64 // the same minus time inside the stage hook
	stages       []stage
	batches      []backend.BatchSpec
}

// replaySQL re-executes stmts through sqlfront.DB.ExecContext with a timing
// StageRunner hook and a capturing backend, and times Parse and DB.Prepare
// on the same texts.
func replaySQL(ctx context.Context, out map[string]float64, tbl *table.Table, stmts []stmt) (*sqlReplay, error) {
	db := sqlfront.NewDB()
	db.Register("reviews", tbl)
	rp := &sqlReplay{}
	capture := &captureBackend{inner: backend.NewSim()}
	var llmRows, nStages int64
	for _, st := range stmts {
		var inHook time.Duration
		cfg := sqlfront.ExecConfig{Config: query.Config{Backend: capture}}
		cfg.StageRunner = func(ctx context.Context, spec query.Spec, t *table.Table, qc query.Config) (*query.StageResult, error) {
			t0 := time.Now()
			res, err := query.RunStageContext(ctx, spec, t, qc)
			inHook += time.Since(t0)
			nStages++
			llmRows += int64(t.NumRows())
			if len(rp.stages) < stageCap && t.NumRows() > 0 {
				rp.stages = append(rp.stages, stage{spec: spec, tbl: t, cfg: qc})
			}
			return res, err
		}
		t0 := time.Now()
		if _, err := db.ExecContext(ctx, st.SQL, cfg); err != nil {
			return nil, fmt.Errorf("replay op %d: %w", st.ID, err)
		}
		total := time.Since(t0)
		rp.execMs = append(rp.execMs, ms(total))
		rp.relationalMs = append(rp.relationalMs, ms(total-inHook))
	}
	rp.batches = capture.captured()
	if len(rp.batches) > stageCap {
		rp.batches = rp.batches[:stageCap]
	}

	n := len(stmts)
	i := 0
	parse, _, _ := timed(n, func() {
		_, _ = sqlfront.Parse(stmts[i].SQL) // parsed fine a moment ago
		i++
	})
	i = 0
	prepare, _, _ := timed(n, func() {
		_, _ = db.Prepare(stmts[i].SQL)
		i++
	})
	out["sqlfront.parse_us_per_stmt"] = us(parse)
	out["sqlfront.prepare_us_per_stmt"] = us(prepare)
	out["sqlfront.relational_us_per_stmt"] = median(rp.relationalMs) * 1e3
	out["sqlfront.llm_rows_per_stmt"] = ratio(float64(llmRows), float64(n))
	out["sqlfront.stages_per_stmt"] = ratio(float64(nStages), float64(n))
	return rp, nil
}

// timingBackend measures the time a stage spends below the backend seam.
type timingBackend struct {
	inner backend.Backend
	spent time.Duration
}

func (t *timingBackend) RunBatch(ctx context.Context, spec backend.BatchSpec) (backend.BatchResult, error) {
	t0 := time.Now()
	res, err := t.inner.RunBatch(ctx, spec)
	t.spent += time.Since(t0)
	return res, err
}

func (t *timingBackend) Close() error { return t.inner.Close() }

// stageLayers replays the captured stages through the query, core and
// tokenizer layers' public functions.
func stageLayers(ctx context.Context, out map[string]float64, stages []stage) error {
	if len(stages) == 0 {
		return nil
	}
	// query: the whole stage, and its share above the backend seam.
	var stageMs []float64
	tb := &timingBackend{inner: backend.NewSim()}
	for _, s := range stages {
		cfg := s.cfg
		cfg.Backend, cfg.ReorderCache, cfg.PromptCache = tb, nil, nil
		t0 := time.Now()
		if _, err := query.RunStageContext(ctx, s.spec, s.tbl, cfg); err != nil {
			return fmt.Errorf("replay stage %s: %w", s.spec.Name, err)
		}
		stageMs = append(stageMs, ms(time.Since(t0)))
	}
	var total float64
	for _, v := range stageMs {
		total += v
	}
	out["query.stage_ms_p50"] = median(stageMs)
	out["query.self_ms_per_stage"] = (total - ms(tb.spent)) / float64(len(stages))

	// core: the GGR solve, its verification, and the hit rates it buys.
	opt := core.DefaultGGROptions(tokenizer.Count)
	scheds := make([]*core.Schedule, len(stages))
	var rows int64
	i := 0
	solve, allocs, bytes := timed(len(stages), func() {
		scheds[i] = core.GGR(stages[i].tbl, opt).Schedule
		rows += int64(stages[i].tbl.NumRows())
		i++
	})
	i = 0
	var verifyErr error
	verify, _, _ := timed(len(stages), func() {
		if err := core.Verify(stages[i].tbl, scheds[i]); err != nil && verifyErr == nil {
			verifyErr = fmt.Errorf("GGR schedule of stage %s: %w", stages[i].spec.Name, err)
		}
		i++
	})
	if verifyErr != nil {
		return verifyErr
	}
	var ggr, orig core.HitStats
	for i, s := range stages {
		h := core.Hits(scheds[i], tokenizer.Count)
		ggr.Matched, ggr.Total = ggr.Matched+h.Matched, ggr.Total+h.Total
		h = core.Hits(core.Original(s.tbl), tokenizer.Count)
		orig.Matched, orig.Total = orig.Matched+h.Matched, orig.Total+h.Total
	}
	out["core.ggr_ms_per_solve"] = ms(solve)
	out["core.ggr_us_per_row"] = ratio(us(solve)*float64(len(stages)), float64(rows))
	out["core.ggr_allocs_per_solve"] = allocs
	out["core.ggr_kb_per_solve"] = bytes / 1024
	out["core.verify_us_per_solve"] = us(verify)
	out["core.hit_rate_ggr"] = ggr.Rate()
	out["core.hit_rate_original"] = orig.Rate()

	// query again: prompt construction over the scheduled rows; tokenizer:
	// encoding those prompts on a fresh tokenizer.
	var prompts []string
	var nRows int
	t0 := time.Now()
	for i, s := range stages {
		for _, r := range scheds[i].Rows {
			prompts = append(prompts, query.BuildPrompt(s.spec.UserPrompt, r.Cells))
		}
		nRows += len(scheds[i].Rows)
	}
	out["query.prompt_build_us_per_row"] = ratio(us(time.Since(t0)), float64(nRows))
	tok := tokenizer.New()
	var promptBytes, tokens int64
	i = 0
	enc, encAllocs, _ := timed(len(prompts), func() {
		tokens += int64(len(tok.Encode(prompts[i])))
		promptBytes += int64(len(prompts[i]))
		i++
	})
	out["tokenizer.encode_mb_per_s"] = ratio(float64(promptBytes)/1e6, enc.Seconds()*float64(len(prompts)))
	out["tokenizer.allocs_per_prompt"] = encAllocs
	out["tokenizer.tokens_per_prompt"] = ratio(float64(tokens), float64(len(prompts)))
	return nil
}

// batchLayers replays the captured BatchSpecs through the kvcache, llmsim
// and — when wire is set, i.e. on the fleet — the backend wire functions.
func batchLayers(out map[string]float64, batches []backend.BatchSpec, wire bool) error {
	if len(batches) == 0 {
		return nil
	}
	// kvcache: Acquire/Release over the token sequences in serving order,
	// one cache per batch sized as the engine would size it.
	var reqs int64
	var cs kvcache.Stats
	t0 := time.Now()
	for _, b := range batches {
		capacity := b.Engine.CapacityOverride
		if capacity <= 0 {
			capacity = b.Engine.Cost.KVPoolBlocks(16)
		}
		c := kvcache.New(kvcache.Config{BlockSize: 16, CapacityBlocks: capacity, Disabled: !b.Engine.CacheEnabled})
		for _, r := range b.Requests {
			if l, ok := c.Acquire(r.Prompt, r.OutTokens); ok {
				c.Release(l)
			}
			reqs++
		}
		s := c.Stats()
		cs.MatchedTokens += s.MatchedTokens
		cs.PromptTokens += s.PromptTokens
		cs.EvictedBlocks += s.EvictedBlocks
	}
	out["kvcache.acquire_release_ns_per_req"] = ratio(float64(time.Since(t0)), float64(reqs))
	out["kvcache.hit_token_ratio"] = cs.HitRate()
	out["kvcache.evicted_blocks"] = float64(cs.EvictedBlocks)

	// llmsim: a fresh engine per batch, as the sim backend builds one.
	var jct float64
	var steps int64
	var runErr error
	i := 0
	run, _, _ := timed(len(batches), func() {
		b := cloneBatch(batches[i])
		m, err := llmsim.New(b.Engine).Run(b.Requests)
		if err != nil && runErr == nil {
			runErr = fmt.Errorf("replay batch %d: %w", i, err)
		}
		jct += m.JCT
		steps += m.Steps
		i++
	})
	if runErr != nil {
		return runErr
	}
	n := float64(len(batches))
	out["llmsim.run_ms_per_batch"] = ms(run)
	out["llmsim.wall_us_per_request"] = ratio(us(run)*n, float64(reqs))
	out["llmsim.virtual_jct_s_per_batch"] = jct / n
	out["llmsim.steps_per_batch"] = float64(steps) / n

	if !wire {
		return nil
	}
	// backend wire: what backend.Remote and the worker's handler do to a
	// batch on either side of the socket, and the router's split/merge.
	bodies := make([][]byte, len(batches))
	var wireBytes int64
	var wireErr error
	i = 0
	enc, _, _ := timed(len(batches), func() {
		body, err := json.Marshal(backend.EncodeWireBatch(batches[i], backend.ClientInfo{Client: "c0", Class: "interactive"}))
		if err != nil && wireErr == nil {
			wireErr = fmt.Errorf("encode wire batch: %w", err)
		}
		bodies[i] = body
		wireBytes += int64(len(body))
		i++
	})
	i = 0
	dec, _, _ := timed(len(batches), func() {
		var wb backend.WireBatch
		err := json.Unmarshal(bodies[i], &wb)
		if err == nil {
			_, err = wb.Spec()
		}
		if err != nil && wireErr == nil {
			wireErr = fmt.Errorf("decode wire batch: %w", err)
		}
		i++
	})
	i = 0
	split, _, _ := timed(len(batches), func() {
		parts, err := backend.SplitByGroups(batches[i], fleetWorkers)
		if err != nil && wireErr == nil {
			wireErr = fmt.Errorf("split batch: %w", err)
		}
		results := make([]backend.BatchResult, len(parts))
		sizes := make([]int, len(parts))
		for p, part := range parts {
			sizes[p] = len(part.Requests)
			results[p].ModelCalls = sizes[p]
		}
		_ = backend.MergeBatchResults(results, sizes)
		i++
	})
	if wireErr != nil {
		return wireErr
	}
	out["backend.wire_encode_us_per_batch"] = us(enc)
	out["backend.wire_decode_us_per_batch"] = us(dec)
	out["backend.wire_bytes_per_request"] = ratio(float64(wireBytes), float64(reqs))
	out["backend.split_merge_us_per_batch"] = us(split)
	return nil
}

// --- the served workloads ----------------------------------------------------

// replaySample is the statements the direct measurements re-execute: the
// head of the correctness sample.
func (s *served) replaySample() []stmt {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []stmt
	for _, r := range s.sample {
		if len(out) == replayCap {
			break
		}
		out = append(out, r.st)
	}
	return out
}

// metricsScrape times GET /v1/metrics in one format after the run.
func (s *served) metricsScrape(ctx context.Context, format string) (time.Duration, int, error) {
	var size int
	var lat []float64
	for i := 0; i < 9; i++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.tp.url+"/v1/metrics?format="+format, nil)
		if err != nil {
			return 0, 0, fmt.Errorf("build metrics request: %w", err)
		}
		t0 := time.Now()
		resp, err := s.hc.Do(req)
		if err != nil {
			return 0, 0, fmt.Errorf("scrape metrics: %w", err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, 0, fmt.Errorf("read metrics: %w", err)
		}
		if resp.StatusCode != http.StatusOK {
			return 0, 0, fmt.Errorf("scrape metrics: status %d", resp.StatusCode)
		}
		lat = append(lat, ms(time.Since(t0)))
		size = len(body)
	}
	return time.Duration(median(lat) * 1e6), size, nil
}

// runtimeReplay drives stmts one at a time through rt.ExecContext and
// returns each one's wall time in milliseconds.
func runtimeReplay(ctx context.Context, rt *llmruntime.Runtime, stmts []stmt) ([]float64, error) {
	var lat []float64
	for _, st := range stmts {
		class, _ := llmruntime.ParseClass(st.Class) // generated classes are valid
		t0 := time.Now()
		if _, err := rt.ExecContext(ctx, st.SQL, llmruntime.Options{Client: llmruntime.ClientID(st.Client), Class: class}); err != nil {
			return nil, fmt.Errorf("runtime replay op %d: %w", st.ID, err)
		}
		lat = append(lat, ms(time.Since(t0)))
	}
	return lat, nil
}

// servedLayers computes every per-layer metric of a served workload. fresh
// maps a sampled statement to the one the runtime replays drive: the same
// generator with an id no run has served on the miss-path workloads, nil on
// the dashboard, whose own statements replayed on its warm runtime are the
// result-cache hit path.
func (s *served) servedLayers(ctx context.Context, d *drive, spans []span, fresh func(stmt, int64) stmt) (map[string]float64, error) {
	out := map[string]float64{}
	st := rollupSpans(spans)
	procLayers(out, d)
	loadgenLayers(out, d, spans)
	backendLayers(out, s.tp.backendSpans, st)
	runtimeCounterLayers(out, s.before, s.after, d.count.OK)
	out["runtime.admission_wait_ms_p50"] = median(st.durMs["runtime.admission"])
	out["runtime.batch_wait_ms_p50"] = median(st.durMs["runtime.batch_wait"])

	sample := s.replaySample()
	if len(sample) == 0 {
		return out, fmt.Errorf("no sampled statements to replay")
	}
	rp, err := replaySQL(ctx, out, s.tbl, sample)
	if err != nil {
		return out, err
	}
	if err := stageLayers(ctx, out, rp.stages); err != nil {
		return out, err
	}
	if err := s.runtimeLayers(ctx, out, sample, rp, fresh); err != nil {
		return out, err
	}
	if err := batchLayers(out, rp.batches, s.tp.router != nil); err != nil {
		return out, err
	}

	if s.tp.handler != nil {
		out["server.handle_ms_p50"] = median(st.durMs["server.handle"])
		out["server.self_us_per_stmt"] = (out["server.handle_ms_p50"] - out["runtime.exec_ms_p50"]) * 1e3
		out["server.resp_bytes_per_stmt"] = ratio(float64(s.tp.handler.respBytes.Load()), float64(s.tp.handler.requests.Load()))
		lat, _, err := s.metricsScrape(ctx, "json")
		if err != nil {
			return out, err
		}
		out["server.metrics_json_us"] = us(lat)
		lat, size, err := s.metricsScrape(ctx, "prometheus")
		if err != nil {
			return out, err
		}
		out["server.metrics_prom_us"] = us(lat)
		out["server.metrics_prom_bytes"] = float64(size)
	}
	if s.tp.router != nil {
		s.clusterLayers(out, st)
	}
	return out, nil
}

// runtimeLayers drives the runtime directly. runtime.exec_ms_p50 is
// Runtime.ExecContext on the topology's own live runtime (so on the fleet it
// includes the router); runtime.self_us_per_stmt is what the runtime adds to
// a statement: on the miss path, ExecContext on a fresh runtime with
// llmqserve's defaults over the plain sim backend minus plain
// DB.ExecContext over the same backend; on the dashboard's hit path, where
// no stage reaches an engine, the live ExecContext minus the relational work
// alone.
func (s *served) runtimeLayers(ctx context.Context, out map[string]float64, sample []stmt, rp *sqlReplay, fresh func(stmt, int64) stmt) error {
	live := sample
	if fresh != nil {
		live = make([]stmt, len(sample))
		for i, x := range sample {
			live[i] = fresh(x, 20_000_000)
		}
	}
	execMs, err := runtimeReplay(ctx, s.tp.rt, live)
	if err != nil {
		return err
	}
	out["runtime.exec_ms_p50"] = median(execMs)
	if fresh == nil {
		out["runtime.self_us_per_stmt"] = (median(execMs) - median(rp.relationalMs)) * 1e3
		return nil
	}
	db := sqlfront.NewDB()
	db.Register("reviews", s.tbl)
	rt := llmruntime.New(db, llmruntime.Config{Workers: 4, BatchWindow: 2 * time.Millisecond, CacheCapacity: 65536, Backend: backend.NewSim()})
	defer rt.Close()
	cold := make([]stmt, len(sample))
	for i, x := range sample {
		cold[i] = fresh(x, 30_000_000)
	}
	simMs, err := runtimeReplay(ctx, rt, cold)
	if err != nil {
		return err
	}
	out["runtime.self_us_per_stmt"] = (median(simMs) - median(rp.execMs)) * 1e3
	return nil
}

// clusterLayers reports the distributed tier: the round trip, what the
// router itself adds around it, the worker's two seams, and the router's
// own counters.
func (s *served) clusterLayers(out map[string]float64, st spanStats) {
	out["cluster.round_trip_ms_p50"] = median(st.durMs["cluster.round_trip"])
	out["cluster.worker_handle_ms_p50"] = median(st.durMs["cluster.worker_handle"])
	out["cluster.worker_engine_ms_p50"] = median(st.durMs["cluster.worker_engine"])
	// What the router itself adds to a batch is its run_batch span's self
	// time: the span minus the union of its (parallel, possibly hedged)
	// round trips.
	trips, batches := float64(len(st.durMs["cluster.round_trip"])), float64(len(st.durMs["backend.run_batch"]))
	var routerSelfMs float64
	for _, v := range st.selfMs["backend.run_batch"] {
		routerSelfMs += v
	}
	out["cluster.router_self_us_per_batch"] = ratio(routerSelfMs*1e3, batches)
	out["cluster.fanout_per_batch"] = ratio(trips, batches)
	m := s.tp.router.Metrics()
	var retries, opens, maxB, sumB float64
	for _, w := range m.Workers {
		retries += float64(w.Retries)
		opens += float64(w.Markdowns)
		maxB = max(maxB, float64(w.Batches))
		sumB += float64(w.Batches)
	}
	out["cluster.retries"] = retries
	out["cluster.hedges_launched"] = float64(m.HedgesLaunched)
	out["cluster.breaker_opens"] = opens
	out["cluster.worker_imbalance"] = ratio(maxB, sumB/float64(len(m.Workers)))
}

func (s *adhocSession) layers(ctx context.Context, d *drive, spans []span) (map[string]float64, error) {
	fresh := func(x stmt, base int64) stmt { return adhocStmt(s.seed, base+x.ID, s.facts) }
	return s.servedLayers(ctx, d, spans, fresh)
}

func (s *dashSession) layers(ctx context.Context, d *drive, spans []span) (map[string]float64, error) {
	return s.servedLayers(ctx, d, spans, nil)
}

// --- batch-analytics -----------------------------------------------------------

// layers replays the paper's 16 queries' first stages over pass 0's tables.
func (s *batchSession) layers(ctx context.Context, d *drive, spans []span) (map[string]float64, error) {
	out := map[string]float64{}
	st := rollupSpans(spans)
	procLayers(out, d)
	loadgenLayers(out, d, spans)
	backendLayers(out, s.spans, st)
	for ds, v := range s.first.solverMs {
		out["core.solver_ms."+strings.ToLower(ds)] = v
	}
	var stages []stage
	capture := &captureBackend{inner: backend.NewSim()}
	for _, q := range llmq.Queries() {
		stg := stage{spec: q, tbl: s.tabs[q.Dataset], cfg: batchConfig(s.scale, query.CacheGGR, capture)}
		if _, err := query.RunStageContext(ctx, stg.spec, stg.tbl, stg.cfg); err != nil {
			return out, fmt.Errorf("capture %s: %w", q.Name, err)
		}
		stages = append(stages, stg)
	}
	if err := stageLayers(ctx, out, stages); err != nil {
		return out, err
	}
	return out, batchLayers(out, capture.captured(), false)
}
