package runtime

import (
	"flag"
	"testing"
	"time"

	"repro/internal/backend"
)

// benchBackend selects the serving backend for BenchmarkMultiClientServing
// (go test ./internal/runtime/ -bench ... -args -backend=persistent). The
// CI bench smoke runs it once per backend; the persistent run additionally
// asserts its hit tokens beat the per-batch-engine baseline on the same
// sequential refresh workload.
var benchBackend = flag.String("backend", "sim", "serving backend for the multi-client bench: sim or persistent")

// benchShards selects the fan-out width for BenchmarkShardedServing; the
// bench always compares against an unsharded run of the same workload.
var benchShards = flag.Int("shards", 4, "shard count for the sharded serving bench")

// benchBackendFor resolves the flag into a fresh backend and reports
// whether the persistent comparison should run.
func benchBackendFor(b *testing.B) (backend.Backend, bool) {
	be, err := backend.ByName(*benchBackend)
	if err != nil {
		b.Fatal(err)
	}
	return be, *benchBackend == "persistent"
}

// multiClientWorkload is the dashboard scenario the runtime is built for:
// K clients refresh overlapping statements — repeats hit the result cache,
// and distinct statements sharing an LLM call coalesce into cross-query
// batches. Returns the statement of each client in submission order.
func multiClientWorkload() []string {
	base := []string{
		dashboardStatements[0], // emea resolved dashboard
		dashboardStatements[1], // amer resolved dashboard (same LLM call)
		dashboardStatements[3], // anger scoreboard
	}
	var stmts []string
	for turn := 0; turn < 2; turn++ { // each dashboard refreshes twice
		stmts = append(stmts, base...)
	}
	return stmts
}

// TestConcurrentBeatsSequential is the acceptance bar of this subsystem: the
// runtime serving K concurrent statements must make strictly fewer total
// model calls and spend strictly less total serving time (virtual JCT, each
// engine run counted once) than the same K statements run back to back
// through SQLDB.Exec — while returning identical result relations.
func TestConcurrentBeatsSequential(t *testing.T) {
	stmts := multiClientWorkload()
	db := newDB(45)
	want, seqCalls, seqJCT := seqBaseline(t, db, stmts)

	rt := New(db, Config{Workers: len(stmts), BatchWindow: 60 * time.Millisecond})
	defer rt.Close()
	start := time.Now()
	handles := make([]*Handle, len(stmts))
	for i, sql := range stmts {
		handles[i] = rt.Submit(sql, Options{})
	}
	for i, h := range handles {
		res, err := h.Wait()
		if err != nil {
			t.Fatalf("client %d (%q): %v", i, stmts[i], err)
		}
		sameRelation(t, stmts[i], want[i], res)
	}
	wall := time.Since(start)

	m := rt.Metrics()
	if m.LLMCalls >= seqCalls {
		t.Errorf("runtime model calls = %d, want strictly fewer than %d sequential calls", m.LLMCalls, seqCalls)
	}
	if m.TotalJCT >= seqJCT {
		t.Errorf("runtime total JCT = %.2fs, want strictly below %.2fs sequential", m.TotalJCT, seqJCT)
	}
	if m.CacheHits+m.InflightDeduped == 0 {
		t.Error("no call was served without a model run; cache/dedup inert")
	}
	t.Logf("%d statements: %d model calls (sequential %d), JCT %.1fs (sequential %.1fs), "+
		"cache hits %d, inflight dedup %d, coalesced runs %d, wall %.0fms",
		len(stmts), m.LLMCalls, seqCalls, m.TotalJCT, seqJCT,
		m.CacheHits, m.InflightDeduped, m.CoalescedRuns, float64(wall.Microseconds())/1000)
}

// BenchmarkMultiClientServing measures the runtime end to end on the
// multi-client workload: submit everything, wait for all. The CI benchmark
// smoke runs this at one iteration to catch rot, once per -backend value.
// Reported custom metrics: model calls, virtual serving seconds, and hit
// tokens per iteration. Under -backend=persistent the bench also asserts
// the cross-window prefix persistence pays: on the sequential refresh
// workload (two batch windows, one stage fingerprint) the persistent
// backend's cumulative hit tokens must be strictly above the sim baseline.
func BenchmarkMultiClientServing(b *testing.B) {
	be, persistent := benchBackendFor(b)
	if be != nil {
		defer be.Close()
	}
	stmts := multiClientWorkload()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db := newDB(45)
		rt := New(db, Config{Workers: 8, BatchWindow: 5 * time.Millisecond, Backend: be})
		handles := make([]*Handle, len(stmts))
		for j, sql := range stmts {
			handles[j] = rt.Submit(sql, Options{})
		}
		for j, h := range handles {
			if _, err := h.Wait(); err != nil {
				b.Fatalf("client %d: %v", j, err)
			}
		}
		m := rt.Metrics()
		rt.Close()
		if i == b.N-1 {
			b.ReportMetric(float64(m.LLMCalls), "llmcalls/op")
			b.ReportMetric(m.TotalJCT, "jct-s/op")
			b.ReportMetric(float64(m.MatchedTokens), "hit-tok/op")
		}
	}
	if persistent {
		b.StopTimer()
		simBE := backend.NewSim()
		defer simBE.Close()
		perBE := backend.NewPersistent(0)
		defer perBE.Close()
		simM, _ := runRefreshes(b, simBE, 45)
		perM, _ := runRefreshes(b, perBE, 45)
		if perM.MatchedTokens <= simM.MatchedTokens {
			b.Fatalf("persistent hit tokens = %d, want strictly above per-batch-engine baseline %d",
				perM.MatchedTokens, simM.MatchedTokens)
		}
		b.ReportMetric(float64(perM.MatchedTokens-simM.MatchedTokens), "extra-hit-tok")
	}
}

// runShardPoint serves the hot-stage workload once at the given fan-out.
func runShardPoint(b *testing.B, shards, rows int) Metrics {
	var be backend.Backend = backend.NewSim()
	if shards > 1 {
		sh, err := backend.NewSharded(be, shards)
		if err != nil {
			b.Fatal(err)
		}
		be = sh
	}
	defer be.Close()
	m, _ := runHotWorkload(b, be, rows)
	return m
}

// BenchmarkShardedServing is the data-parallel acceptance artifact: the
// hot-stage workload (four concurrent clients coalescing into one batch on
// one stage fingerprint) served at -shards (default 4) versus unsharded.
// The sharded run's total virtual JCT must be strictly below the unsharded
// run's, with prefix hit tokens at >= 90% — asserted on every run,
// including the 1x CI smoke.
func BenchmarkShardedServing(b *testing.B) {
	const rows = 72
	var one, many Metrics
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		one = runShardPoint(b, 1, rows)
		many = runShardPoint(b, *benchShards, rows)
	}
	if many.TotalJCT >= one.TotalJCT {
		b.Fatalf("shards=%d JCT %.2fs, want strictly below shards=1 JCT %.2fs",
			*benchShards, many.TotalJCT, one.TotalJCT)
	}
	if min := one.MatchedTokens * 9 / 10; many.MatchedTokens < min {
		b.Fatalf("shards=%d hit tokens %d, want >= 90%% of shards=1's %d",
			*benchShards, many.MatchedTokens, one.MatchedTokens)
	}
	b.ReportMetric(one.TotalJCT, "jct-1shard-s/op")
	b.ReportMetric(many.TotalJCT, "jct-Nshard-s/op")
	b.ReportMetric(float64(many.MatchedTokens), "hit-tok/op")
}

// BenchmarkReorderCacheServing pins the amortized planning cost: two
// identical batch windows (result cache off, so the engine runs twice) must
// solve GGR exactly once.
func BenchmarkReorderCacheServing(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db := newDB(45)
		rt := New(db, Config{Workers: 2, CacheCapacity: -1})
		for turn := 0; turn < 2; turn++ {
			if _, err := rt.Exec(dashboardStatements[0], Options{}); err != nil {
				b.Fatal(err)
			}
		}
		m := rt.Metrics()
		rt.Close()
		if m.ReorderSolves != 1 {
			b.Fatalf("repeated window solved GGR %d times, want 1", m.ReorderSolves)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(m.ReorderCacheHits), "reorder-hits/op")
			b.ReportMetric(float64(m.ReorderSolves), "ggr-solves/op")
		}
	}
}

// BenchmarkSequentialServing is the baseline the multi-client bench is read
// against: the same statements through plain SQLDB.Exec, one at a time.
func BenchmarkSequentialServing(b *testing.B) {
	stmts := multiClientWorkload()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db := newDB(45)
		_, calls, jct := seqBaseline(b, db, stmts)
		if i == b.N-1 {
			b.ReportMetric(float64(calls), "llmcalls/op")
			b.ReportMetric(jct, "jct-s/op")
		}
	}
}
