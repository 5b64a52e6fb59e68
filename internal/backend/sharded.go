package backend

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/llmsim"
	"repro/internal/obs"
)

// DefaultShards is the shard count the "sharded-*" backend names use when no
// explicit -shards value composes with them.
const DefaultShards = 4

// Sharded is the data-parallel decorator: it splits one scheduled batch into
// up to N prefix-coherent sub-batches and fans them out to concurrent
// RunBatch calls on the wrapped backend, so a single hot stage can use N
// engine replicas instead of one sequential run.
//
// The split follows BatchSpec.Groups, the top-level prefix-sharing group
// boundaries the scheduler annotated (core.GroupStarts): a group's rows
// share prompt prefixes with each other but not with the next group, so
// cutting only at group boundaries preserves every intra-shard prefix hit —
// the same insight behind cache-aware data-parallel serving in vLLM and
// SGLang, applied to the paper's offline GGR schedules. What sharding does
// forfeit is the shared fixed prompt prefix: each sub-batch's engine warms
// it independently, a per-shard cost that is constant in the batch size.
// Groups are balanced across shards by request-token weight (core.PackGroups
// greedy), and a batch without group annotations, with a single group, or
// smaller than two requests passes through unsplit. Sub-batches keep the
// group starts that fall inside them (see SplitByGroups): a router's half
// of a replicated batch is cut again by the worker it lands on.
//
// Results merge by construction: answers are content-keyed outside the
// engine, so sharded relations are byte-identical to unsharded ones; merged
// Metrics report the parallel JCT (max over shards), summed token and step
// counts, request-weighted mean latency, and worst-shard tail percentiles.
//
// Composing with Persistent is the intended production shape: sub-batches
// share the batch's StageKey, so they land on the same stage's replica pool
// and overlap on separate replicas (see Persistent).
type Sharded struct {
	inner  Backend
	shards int

	shardedBatches atomic.Int64
	shardRuns      atomic.Int64
	shardJCTMicros atomic.Int64
}

var _ Backend = (*Sharded)(nil)

// NewSharded wraps inner (nil wraps a fresh Sim) with a data-parallel fan-out
// of up to shards concurrent engine runs per batch. shards < 1 is an error;
// shards == 1 is a valid passthrough.
func NewSharded(inner Backend, shards int) (*Sharded, error) {
	if shards < 1 {
		return nil, fmt.Errorf("backend: sharded backend needs shards >= 1, got %d", shards)
	}
	if inner == nil {
		inner = NewSim()
	}
	return &Sharded{inner: inner, shards: shards}, nil
}

// Shards reports the configured fan-out width.
func (s *Sharded) Shards() int { return s.shards }

// ShardStats is the decorator's accounting, merged into runtime.Metrics.
//
// Counting fields are conserved accounting: the llmqlint accounting
// analyzer rejects keyed literals that set some counters and omit others.
//
//llmqlint:accounting
type ShardStats struct {
	// ShardedBatches counts batches actually split (>= 2 sub-batches);
	// ShardRuns the sub-batches dispatched to the inner backend.
	ShardedBatches int64
	ShardRuns      int64
	// ShardJCTSeconds sums per-shard virtual JCT; divided by ShardRuns it is
	// the mean per-shard latency. Compare with the merged (max-over-shards)
	// JCT the batches reported to see the parallel speedup.
	ShardJCTSeconds float64
}

// Stats snapshots the sharding counters.
func (s *Sharded) Stats() ShardStats {
	return ShardStats{
		ShardedBatches:  s.shardedBatches.Load(),
		ShardRuns:       s.shardRuns.Load(),
		ShardJCTSeconds: float64(s.shardJCTMicros.Load()) / 1e6,
	}
}

// ShardedOf finds the Sharded serving behind be, seen through decorators
// that expose what they wrap as Unwrap() Backend (a chaos wrapper, a tracing
// wrapper); nil when the chain holds none.
func ShardedOf(be Backend) *Sharded {
	for {
		switch b := be.(type) {
		case *Sharded:
			return b
		case interface{ Unwrap() Backend }:
			be = b.Unwrap()
		default:
			return nil
		}
	}
}

// ShardStatsOf reports the accounting of ShardedOf(be); zero when the chain
// holds none.
func ShardStatsOf(be Backend) ShardStats {
	if s := ShardedOf(be); s != nil {
		return s.Stats()
	}
	return ShardStats{}
}

// RunBatch partitions the batch along its group boundaries and serves the
// shards concurrently on the inner backend (see RunParts for the failure
// and cancellation contract).
func (s *Sharded) RunBatch(ctx context.Context, spec BatchSpec) (BatchResult, error) {
	if err := ctx.Err(); err != nil {
		return BatchResult{}, err
	}
	parts, err := SplitByGroups(spec, s.shards)
	if err != nil {
		return BatchResult{}, err
	}
	if len(parts) <= 1 { // SplitByGroups hands an unsplittable batch back whole
		return s.inner.RunBatch(ctx, spec)
	}

	// The backend span (attached by the query layer) gets the fan-out width
	// and one completed child per shard. Span mutation is mutex-guarded, so
	// the concurrent shard goroutines may annotate the same parent.
	sp := obs.FromContext(ctx)
	sp.Set("shards", len(parts))
	var jctMicros atomic.Int64 // charged to the counters only if every shard succeeds
	merged, err := RunParts(ctx, parts, func(ctx context.Context, b int, part BatchSpec) (BatchResult, error) {
		shardStart := time.Now()
		res, err := s.inner.RunBatch(ctx, part)
		if sp != nil {
			c := sp.ChildAt(fmt.Sprintf("shard-%d", b), shardStart, time.Since(shardStart))
			c.Set("requests", len(part.Requests))
			if err == nil {
				c.Set("jctSeconds", res.Metrics.JCT)
			}
		}
		jctMicros.Add(int64(res.Metrics.JCT * 1e6))
		return res, err
	})
	if err != nil {
		return BatchResult{}, err
	}
	s.shardedBatches.Add(1)
	s.shardRuns.Add(int64(len(parts)))
	s.shardJCTMicros.Add(jctMicros.Load())
	return merged, nil
}

// RunParts is the scatter–gather every fan-out backend (Sharded,
// cluster.Router) shares: it serves the parts of one split batch
// concurrently through run and merges their results (MergeBatchResults,
// weighted by each part's request count). The first failing part cancels
// its peers; ctx cancellation propagates to every part. A single part runs
// on the caller's goroutine and its result is returned as is.
func RunParts(ctx context.Context, parts []BatchSpec, run func(ctx context.Context, i int, part BatchSpec) (BatchResult, error)) (BatchResult, error) {
	if len(parts) == 1 {
		return run(ctx, 0, parts[0])
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]BatchResult, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i, part := range parts {
		wg.Add(1)
		go func(i int, part BatchSpec) {
			defer wg.Done()
			results[i], errs[i] = run(runCtx, i, part)
			if errs[i] != nil {
				cancel() // fail fast: peers stop between engine steps
			}
		}(i, part)
	}
	wg.Wait()
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		// A failing part cancels its peers, so the peers report
		// context.Canceled even though they did not cause the failure.
		// Surface the root cause: the first error that is NOT a
		// cancellation wins; plain ctx.Err()/Canceled only survives when
		// every failure is one (i.e. the caller's own cancellation).
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			firstErr = err
			break
		}
	}
	if firstErr != nil {
		if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(firstErr, ctxErr) {
			return BatchResult{}, ctxErr
		}
		return BatchResult{}, firstErr
	}
	sizes := make([]int, len(parts))
	for i, part := range parts {
		sizes[i] = len(part.Requests)
	}
	return MergeBatchResults(results, sizes), nil
}

// SplitByGroups partitions spec at its prefix-group boundaries into at most
// n sub-batches, balanced by request-token weight (core.PackGroups greedy).
// Sub-batches inherit the StageKey and Engine and keep the group starts that
// fall inside them, rebased: a part is a concatenation of whole groups, so
// those are still true cut points and the worker that serves a part can
// shard it again. A batch
// that should not be split (n < 2, no or single group annotation, fewer than
// two requests) returns a single-element slice holding spec unchanged; an
// invalid Groups annotation is an error.
func SplitByGroups(spec BatchSpec, n int) ([]BatchSpec, error) {
	if n < 2 || len(spec.Groups) <= 1 || len(spec.Requests) < 2 {
		return []BatchSpec{spec}, nil
	}
	if err := validGroups(spec.Groups, len(spec.Requests)); err != nil {
		return nil, err
	}
	bins := core.PackGroups(groupWeights(spec), n)
	if len(bins) <= 1 {
		return []BatchSpec{spec}, nil
	}
	parts := make([]BatchSpec, len(bins))
	for b, groups := range bins {
		var reqs []*llmsim.Request
		starts := make([]int, len(groups))
		for i, g := range groups {
			start, end := groupBounds(spec, g)
			starts[i] = len(reqs)
			reqs = append(reqs, spec.Requests[start:end]...)
		}
		parts[b] = BatchSpec{StageKey: spec.StageKey, Requests: reqs, Groups: starts, Engine: spec.Engine}
	}
	return parts, nil
}

// MergeBatchResults folds the results of concurrently served sub-batches
// back into one BatchResult with the parallel-run semantics every fan-out
// backend (Sharded, cluster.Router) shares: JCT is the slowest part, step
// and token counts sum, mean latency is request-weighted (sizes holds each
// part's request count), and tail percentiles / peak concurrency report the
// worst part — a conservative merge, since exact percentiles would need the
// per-request samples the seam does not carry.
func MergeBatchResults(results []BatchResult, sizes []int) BatchResult {
	merged := BatchResult{}
	var latWeighted float64
	var total int
	for b, r := range results {
		merged.ModelCalls += r.ModelCalls
		m := &merged.Metrics
		sm := r.Metrics
		if sm.JCT > m.JCT {
			m.JCT = sm.JCT // parts run in parallel: batch JCT is the slowest part
		}
		m.Steps += sm.Steps
		m.PromptTokens += sm.PromptTokens
		m.MatchedTokens += sm.MatchedTokens
		m.PrefilledTokens += sm.PrefilledTokens
		m.DecodeTokens += sm.DecodeTokens
		latWeighted += sm.MeanLatency * float64(sizes[b])
		total += sizes[b]
		if sm.P50Latency > m.P50Latency {
			m.P50Latency = sm.P50Latency
		}
		if sm.P95Latency > m.P95Latency {
			m.P95Latency = sm.P95Latency
		}
		if sm.P99Latency > m.P99Latency {
			m.P99Latency = sm.P99Latency
		}
		if sm.MaxRunning > m.MaxRunning {
			m.MaxRunning = sm.MaxRunning
		}
		m.Cache.MatchedTokens += sm.Cache.MatchedTokens
		m.Cache.PromptTokens += sm.Cache.PromptTokens
		m.Cache.InsertedBlocks += sm.Cache.InsertedBlocks
		m.Cache.EvictedBlocks += sm.Cache.EvictedBlocks
		m.Cache.Rejections += sm.Cache.Rejections
	}
	if total > 0 {
		merged.Metrics.MeanLatency = latWeighted / float64(total)
	}
	return merged
}

// Close closes the wrapped backend.
func (s *Sharded) Close() error { return s.inner.Close() }

// groupWeights is each group's request weight: prompt tokens plus output
// budget, the units the engine's step budget is spent in.
func groupWeights(spec BatchSpec) []int64 {
	weights := make([]int64, len(spec.Groups))
	for g := range spec.Groups {
		start, end := groupBounds(spec, g)
		for _, r := range spec.Requests[start:end] {
			weights[g] += int64(len(r.Prompt) + r.OutTokens)
		}
	}
	return weights
}

// groupBounds returns the request index range [start, end) of group g.
func groupBounds(spec BatchSpec, g int) (int, int) {
	start := spec.Groups[g]
	end := len(spec.Requests)
	if g+1 < len(spec.Groups) {
		end = spec.Groups[g+1]
	}
	return start, end
}

// validGroups checks the group annotation is a plausible boundary list:
// strictly ascending, starting at 0, within range.
func validGroups(groups []int, n int) error {
	for i, g := range groups {
		switch {
		case i == 0 && g != 0:
			return fmt.Errorf("backend: batch group annotation starts at %d, want 0", g)
		case i > 0 && g <= groups[i-1]:
			return fmt.Errorf("backend: batch group annotation not ascending at index %d", i)
		case g >= n:
			return fmt.Errorf("backend: batch group start %d out of range (batch has %d requests)", g, n)
		}
	}
	return nil
}
