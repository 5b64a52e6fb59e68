package main

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/backend"
)

// The decorators in this file are the traced run's only instrumentation:
// each sits at a seam the program already exposes (backend.Backend,
// http.Handler, http.RoundTripper) and records one span per call. None is
// installed in the untraced run.

// Headers carrying the span context across the two HTTP hops (client →
// server, router → worker).
const (
	opHeader   = "X-Perf-Op"
	spanHeader = "X-Perf-Span"
)

// spanBackend decorates a backend.Backend with one span per RunBatch plus
// the batch-shape counters the per-layer report quotes.
type spanBackend struct {
	inner backend.Backend
	rec   *recorder
	name  string

	batches      atomic.Int64
	requests     atomic.Int64
	promptTokens atomic.Int64
}

var _ backend.Backend = (*spanBackend)(nil)

func (b *spanBackend) RunBatch(ctx context.Context, spec backend.BatchSpec) (backend.BatchResult, error) {
	ref := spanRefFrom(ctx)
	id := b.rec.begin(b.name, ref.span, ref.op)
	res, err := b.inner.RunBatch(withSpanRef(ctx, spanRef{span: id, op: ref.op}), spec)
	b.rec.end(id)
	b.batches.Add(1)
	b.requests.Add(int64(len(spec.Requests)))
	b.promptTokens.Add(res.Metrics.PromptTokens)
	return res, err
}

func (b *spanBackend) Close() error { return b.inner.Close() }

// Unwrap lets Runtime.Metrics see through to a cluster.Router underneath.
func (b *spanBackend) Unwrap() backend.Backend { return b.inner }

// spanHandler decorates an http.Handler with one span per request on path,
// parented on the span (and op) named by the X-Perf-* headers, and counts
// response bytes.
type spanHandler struct {
	inner http.Handler
	rec   *recorder
	name  string
	path  string

	requests  atomic.Int64
	respBytes atomic.Int64
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != h.path {
		h.inner.ServeHTTP(w, r)
		return
	}
	ref := spanRef{op: -1}
	if v, err := strconv.ParseInt(r.Header.Get(opHeader), 10, 64); err == nil {
		ref.op = v
	}
	if v, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64); err == nil {
		ref.span = v
	}
	id := h.rec.begin(h.name, ref.span, ref.op)
	cw := &countingWriter{ResponseWriter: w}
	h.inner.ServeHTTP(cw, r.WithContext(withSpanRef(r.Context(), spanRef{span: id, op: ref.op})))
	h.rec.end(id)
	h.requests.Add(1)
	h.respBytes.Add(cw.n)
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// spanTransport decorates the router's http.RoundTripper with one span per
// /v1/batch round trip and forwards the span context to the worker.
type spanTransport struct {
	inner http.RoundTripper
	rec   *recorder
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/v1/batch" {
		return t.inner.RoundTrip(req)
	}
	ref := spanRefFrom(req.Context())
	id := t.rec.begin("cluster.round_trip", ref.span, ref.op)
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	out.Header.Set(opHeader, strconv.FormatInt(ref.op, 10))
	resp, err := t.inner.RoundTrip(out)
	t.rec.end(id)
	return resp, err
}

// captureBackend records every BatchSpec it serves, for the direct-call
// replays. Requests are copied: the engine fills result fields in place.
type captureBackend struct {
	inner backend.Backend

	mu    sync.Mutex
	specs []backend.BatchSpec // guarded by mu
}

var _ backend.Backend = (*captureBackend)(nil)

func (c *captureBackend) RunBatch(ctx context.Context, spec backend.BatchSpec) (backend.BatchResult, error) {
	c.mu.Lock()
	c.specs = append(c.specs, cloneBatch(spec))
	c.mu.Unlock()
	return c.inner.RunBatch(ctx, spec)
}

func (c *captureBackend) Close() error { return c.inner.Close() }

func (c *captureBackend) captured() []backend.BatchSpec {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]backend.BatchSpec(nil), c.specs...)
}
