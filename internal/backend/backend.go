// Package backend defines the execution boundary between the query layers
// and an LLM serving engine: a database/sql-driver-style seam the rest of
// the stack targets instead of constructing engines inline.
//
// The layers above (internal/query, internal/sqlfront, internal/runtime)
// decide WHAT to serve — which rows, in which order, with which per-row
// output budgets — and hand the finished schedule to a Backend as one
// BatchSpec. The Backend decides WHERE and HOW it is served. Four
// implementations ship:
//
//   - Sim: one confined engine + KV cache per batch (the paper's setting,
//     and the previous hardwired behavior).
//   - Persistent: a pool of long-lived engine replicas per stage
//     fingerprint whose KV caches survive between batches, so prefix hits
//     span batch windows — the cross-statement KV-cache persistence the
//     single-run design could not express — while concurrent batches on one
//     hot stage overlap on separate replicas.
//   - Sharded: a data-parallel decorator that splits one batch at its
//     prefix-group boundaries (BatchSpec.Groups) and fans the shards out to
//     concurrent runs on the wrapped backend.
//   - Recording: a decorator that logs every batch for tests and metrics.
//
// Because the simulated oracle answers outside the engine (answers are
// content-keyed in the query layer), swapping backends changes serving cost
// only — result relations are byte-identical across all of them.
//
// Every RunBatch takes a context and must honor it: cancellation is checked
// on entry and between engine steps, and an aborted run returns ctx.Err()
// with no engine state leaked (see llmsim.Engine.RunInterruptible).
package backend

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/llmsim"
)

// BatchSpec is one scheduled engine run: tokenized requests in serving
// order, each carrying its own output budget, plus the engine configuration
// to serve them under and a stage key for backends that keep per-stage
// state.
type BatchSpec struct {
	// StageKey fingerprints the stage shape (prompt, schema, answer
	// alphabet, serving config — see query.StageKey). Persistent backends
	// key long-lived engine state on it: two batches with equal keys share
	// a KV cache, so their prefixes hit across batch windows. Batches with
	// equal StageKeys must carry equal Engine configs and token ids from one
	// tokenizer: a stage tokenized on a tokenizer of its own gets a key of
	// its own (see query.RunStageContext).
	StageKey string
	// Requests are the scheduled rows in serving order. Under FIFO the
	// order IS the serving order; preserving it is the contract the offline
	// reordering relies on.
	Requests []*llmsim.Request
	// Groups lists the start indices of the schedule's top-level
	// prefix-sharing groups within Requests (ascending, first element 0 —
	// see core.GroupStarts). Adjacent requests in different groups share no
	// prompt prefix beyond what any two requests share, so a data-parallel
	// backend may cut the batch at these boundaries with no intra-shard
	// prefix-hit loss. Empty means the scheduler did not annotate the batch;
	// sharding backends then serve it unsplit.
	Groups []int
	// Engine sizes the serving engine (cost model, batch limits, cache
	// toggle) for this batch.
	Engine llmsim.Config
}

// BatchResult reports one engine run: model calls made, hit/total prompt
// tokens, and latency (all inside Metrics).
//
// Counting fields are conserved accounting: the llmqlint accounting
// analyzer rejects keyed literals that set some counters and omit others.
//
//llmqlint:accounting
type BatchResult struct {
	// Metrics is the engine's accounting: JCT, prompt/matched/prefilled
	// tokens, per-request latency percentiles.
	Metrics llmsim.Metrics
	// ModelCalls is the number of requests that reached the engine —
	// always len(BatchSpec.Requests) for the shipped backends; callers
	// above may report fewer when caches served rows without a batch.
	ModelCalls int
}

// Backend is a pluggable serving target. Implementations must be safe for
// concurrent RunBatch calls from any number of goroutines (the serving
// runtime's workers share one backend) and must honor ctx: a canceled
// context aborts the run between engine steps and returns ctx.Err().
//
// Close releases any long-lived engine state; the backend's owner calls it
// once, and RunBatch must not be called afterwards.
type Backend interface {
	RunBatch(ctx context.Context, spec BatchSpec) (BatchResult, error)
	Close() error
}

// ByName builds a backend from its flag/config name — the single resolver
// behind every -backend flag, so the tools and benches cannot drift apart:
// "sim" is the per-batch engine, "persistent" a NewPersistent with the
// default engine budget, and "sharded-sim"/"sharded-persistent" wrap those
// in a Sharded decorator with DefaultShards shards.
func ByName(name string) (Backend, error) {
	return ByNameShards(name, 1)
}

// ByNameShards is ByName composed with a shard count: shards > 1 wraps the
// named backend in NewSharded (the -shards flag on llmqserve/llmqsql), and
// the "sharded-*" names imply DefaultShards when shards is 1. shards < 1 is
// an error.
func ByNameShards(name string, shards int) (Backend, error) {
	if shards < 1 {
		return nil, fmt.Errorf("backend: shards must be >= 1, got %d", shards)
	}
	base := name
	if inner, ok := strings.CutPrefix(name, "sharded-"); ok {
		base = inner
		if shards == 1 {
			shards = DefaultShards
		}
	}
	var be Backend
	switch base {
	case "sim":
		be = NewSim()
	case "persistent":
		be = NewPersistent(0)
	case "remote":
		// The remote backend exists (NewRemote / cluster.Router) but needs
		// worker addresses this resolver does not carry; both CLIs resolve it
		// through cluster.Resolve, which delegates every other name back here.
		return nil, fmt.Errorf("backend: backend %q needs cluster worker addresses: pass -cluster-workers host:port,... (resolved via cluster.Resolve)", name)
	default:
		return nil, fmt.Errorf("backend: unknown backend %q: want sim, persistent, sharded-sim, sharded-persistent, or remote", name)
	}
	if shards > 1 {
		return NewSharded(be, shards)
	}
	return be, nil
}

// interruptFor adapts a context to the engine's per-step cancellation hook.
// A context that can never be canceled polls as nil, keeping the engine's
// hot loop branch-free in the common case.
func interruptFor(ctx context.Context) func() error {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return ctx.Err
}
