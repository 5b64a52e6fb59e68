package main

import (
	"strings"

	llmq "repro"
	"repro/internal/query"
)

// metricDef declares one metric the benchmark emits. BENCHMARK.json at the
// repo root repeats the names, units and directions (perf_test.go holds the
// two in step) and is where a metric's regression bound lives.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Exact marks a virtual-clock counter: it repeats bit for bit across
	// same-seed runs with a fixed op count, so -compare holds it to zero
	// drift there instead of to its band.
	Exact bool
}

// endToEndDefs are the metrics a user of the system would see, emitted by
// every untraced run of every workload. An op is one RunQuery call on
// batch-analytics and one statement on the served workloads.
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "jct_virtual_s", Unit: "s", Better: "lower", Exact: true},
	{Name: "prefix_hit_rate", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "llm_calls_per_op", Unit: "count", Better: "lower", Exact: true},
	{Name: "jct_speedup_vs_original", Unit: "ratio", Better: "higher", Exact: true},
}

// endToEnd computes the end-to-end metrics of an untraced run.
func endToEnd(o *outcome) map[string]float64 {
	d := o.d
	ops := float64(d.count.OK)
	lat := sortedCopy(d.latMs)
	speedup := 1.0
	if d.jctOriginal > 0 {
		speedup = ratio(d.jctOriginal, d.virt.JCT)
	}
	return map[string]float64{
		"setup_s":                 median(o.setupS),
		"ops_per_s":               ratio(ops, d.m.Wall.Seconds()),
		"latency_p50_ms":          median(lat),
		"latency_p90_ms":          quantile(lat, 0.90),
		"cpu_ms_per_op":           ratio(ms(d.m.CPU), ops),
		"allocs_per_op":           ratio(float64(d.m.Mallocs), ops),
		"alloc_kb_per_op":         ratio(float64(d.m.AllocBytes)/1024, ops),
		"peak_rss_mb":             o.peakRSS,
		"jct_virtual_s":           ratio(d.virt.JCT, ops),
		"prefix_hit_rate":         ratio(float64(d.virt.MatchedTokens), float64(d.virt.PromptTokens)),
		"llm_calls_per_op":        ratio(float64(d.virt.LLMCalls), ops),
		"jct_speedup_vs_original": speedup,
	}
}

// perLayerDefs are the metrics of single layers, emitted by every traced
// run; a layer a workload does not cross reports 0.
var perLayerDefs = func() []metricDef {
	lo := func(unit string, names ...string) []metricDef {
		out := make([]metricDef, len(names))
		for i, n := range names {
			out[i] = metricDef{Name: n, Unit: unit, Better: "lower"}
		}
		return out
	}
	hi := func(unit string, names ...string) []metricDef {
		out := lo(unit, names...)
		for i := range out {
			out[i].Better = "higher"
		}
		return out
	}
	var defs []metricDef
	add := func(ds []metricDef) { defs = append(defs, ds...) }
	add(lo("ms", "loadgen.latency_p99_ms"))
	add(lo("us", "loadgen.client_overhead_us"))
	add(lo("ms", "server.handle_ms_p50"))
	add(lo("us", "server.self_us_per_stmt"))
	add(lo("B", "server.resp_bytes_per_stmt"))
	add(lo("us", "server.metrics_json_us", "server.metrics_prom_us"))
	add(lo("B", "server.metrics_prom_bytes"))
	add(lo("us", "sqlfront.parse_us_per_stmt", "sqlfront.prepare_us_per_stmt", "sqlfront.relational_us_per_stmt"))
	add(lo("count", "sqlfront.llm_rows_per_stmt", "sqlfront.stages_per_stmt"))
	add(lo("ms", "runtime.exec_ms_p50"))
	add(lo("us", "runtime.self_us_per_stmt"))
	add(lo("ms", "runtime.admission_wait_ms_p50", "runtime.batch_wait_ms_p50"))
	add(hi("ratio", "runtime.plan_cache_hit_ratio", "runtime.result_cache_hit_ratio"))
	add(hi("count", "runtime.inflight_dedup_rows"))
	add(hi("ratio", "runtime.coalesced_run_ratio"))
	add(hi("count", "runtime.rows_per_batch"))
	add(lo("count", "runtime.batches_per_stmt"))
	add(hi("ratio", "runtime.reorder_cache_hit_ratio", "runtime.prompt_cache_hit_ratio"))
	add(lo("ms", "query.stage_ms_p50", "query.self_ms_per_stage"))
	add(lo("us", "query.prompt_build_us_per_row"))
	add(lo("ms", "core.ggr_ms_per_solve"))
	add(lo("us", "core.ggr_us_per_row"))
	add(lo("count", "core.ggr_allocs_per_solve"))
	add(lo("KiB", "core.ggr_kb_per_solve"))
	add(lo("us", "core.verify_us_per_solve"))
	add(hi("ratio", "core.hit_rate_ggr", "core.hit_rate_original"))
	add(lo("ms", solverAnchors()...))
	add(hi("MB/s", "tokenizer.encode_mb_per_s"))
	add(lo("count", "tokenizer.allocs_per_prompt", "tokenizer.tokens_per_prompt"))
	add(lo("ns", "kvcache.acquire_release_ns_per_req"))
	add(hi("ratio", "kvcache.hit_token_ratio"))
	add(lo("count", "kvcache.evicted_blocks"))
	add(lo("ms", "llmsim.run_ms_per_batch"))
	add(lo("us", "llmsim.wall_us_per_request"))
	add(lo("s", "llmsim.virtual_jct_s_per_batch"))
	add(lo("count", "llmsim.steps_per_batch"))
	add(lo("ms", "backend.run_batch_ms_p50"))
	add(lo("count", "backend.batches"))
	add(hi("count", "backend.requests_per_batch", "backend.prompt_tokens_per_batch"))
	add(lo("us", "backend.wire_encode_us_per_batch", "backend.wire_decode_us_per_batch"))
	add(lo("B", "backend.wire_bytes_per_request"))
	add(lo("us", "backend.split_merge_us_per_batch"))
	add(lo("ms", "cluster.round_trip_ms_p50"))
	add(lo("us", "cluster.router_self_us_per_batch"))
	add(lo("ms", "cluster.worker_handle_ms_p50", "cluster.worker_engine_ms_p50"))
	add(lo("count", "cluster.fanout_per_batch", "cluster.retries", "cluster.hedges_launched", "cluster.breaker_opens"))
	add(lo("ratio", "cluster.worker_imbalance"))
	add(lo("count", "proc.gc_cycles"))
	add(lo("ms", "proc.gc_pause_ms_total"))
	add(lo("MiB", "proc.heap_inuse_mb_end"))
	add(lo("count", "proc.goroutines_end"))
	add(lo("ratio", "trace.overhead_ratio", "trace.blocking_path_ratio"))
	add(lo("count", "trace.spans"))
	return defs
}()

// solverAnchors names Table 5's rows: the solver time of each relational
// dataset's T1 (filter) query.
func solverAnchors() []string {
	var out []string
	for _, q := range llmq.Queries() {
		if q.Type == query.Filter {
			out = append(out, "core.solver_ms."+strings.ToLower(q.Dataset))
		}
	}
	return out
}

// complete fills in 0 for every declared metric the run did not produce, so
// each run emits exactly the declared set.
func complete(defs []metricDef, got map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(defs))
	for _, d := range defs {
		out[d.Name] = got[d.Name]
	}
	return out
}
