package backend

import (
	"context"
	"sync"

	"repro/internal/llmsim"
)

// RecordedBatch is one RunBatch observed by a Recording backend.
//
// Counting fields are conserved accounting: the llmqlint accounting
// analyzer rejects keyed literals that set some counters and omit others.
//
//llmqlint:accounting
type RecordedBatch struct {
	StageKey   string
	Rows       int // requests in the batch
	OutTokens  int // summed per-row output budgets
	ModelCalls int
	Metrics    llmsim.Metrics
	Err        string // empty on success
}

// Recording decorates another backend, logging every batch it serves —
// the test-and-metrics tap of the driver API. Wrap any backend to assert
// exactly which stages reached an engine, how many rows rode in each batch,
// and what the engine reported, without changing execution semantics.
type Recording struct {
	inner Backend

	mu      sync.Mutex
	batches []RecordedBatch // guarded by mu
}

var _ Backend = (*Recording)(nil)

// NewRecording wraps inner (nil wraps a fresh Sim backend).
func NewRecording(inner Backend) *Recording {
	if inner == nil {
		inner = NewSim()
	}
	return &Recording{inner: inner}
}

// RunBatch delegates to the wrapped backend and records the outcome,
// including failed and canceled batches.
func (r *Recording) RunBatch(ctx context.Context, spec BatchSpec) (BatchResult, error) {
	res, err := r.inner.RunBatch(ctx, spec)
	outTok := 0
	for _, req := range spec.Requests {
		outTok += req.OutTokens
	}
	rec := RecordedBatch{
		StageKey:   spec.StageKey,
		Rows:       len(spec.Requests),
		OutTokens:  outTok,
		ModelCalls: res.ModelCalls,
		Metrics:    res.Metrics,
	}
	if err != nil {
		rec.Err = err.Error()
	}
	r.mu.Lock()
	r.batches = append(r.batches, rec)
	r.mu.Unlock()
	return res, err
}

// Batches returns a copy of everything recorded so far.
//
//llmqlint:api llmq.RecordingBackend; the runtime, cluster and llmq tests read the log
func (r *Recording) Batches() []RecordedBatch {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]RecordedBatch(nil), r.batches...)
}

// Reset clears the log.
func (r *Recording) Reset() {
	r.mu.Lock()
	r.batches = nil
	r.mu.Unlock()
}

// Close closes the wrapped backend.
func (r *Recording) Close() error { return r.inner.Close() }
