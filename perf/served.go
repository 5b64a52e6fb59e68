package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	llmruntime "repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/table"
)

// relation is a served statement's answer, kept for the correctness sample.
type relation struct {
	st   stmt
	cols []string
	rows [][]string
}

// reply is what one served statement returned.
type reply struct {
	cols     []string
	rows     [][]string
	llmCalls int64
	trace    *obs.Trace
}

// sampleEvery is the correctness sample's rate: one served statement in
// eight, picked by a seeded hash of its id, is re-executed on the plain
// single-process path.
const sampleEvery = 8

func sampled(seed, id int64) bool {
	return splitmix(uint64(seed)*0x9e3779b97f4a7c15^uint64(id))%sampleEvery == 0
}

// served is the state the three served workloads share: the table, the
// booted topology, and what the timed phase retained for the checks.
type served struct {
	seed  int64
	tbl   *table.Table
	facts tableFacts
	tp    *topology
	rec   *recorder
	hc    *http.Client // nil when the workload drives the Runtime API

	warm phase

	mu           sync.Mutex
	sample       []relation // guarded by mu
	respLLMCalls atomic.Int64

	before, after llmruntime.Metrics
}

// validate checks one reply against what the generator says a correct
// answer looks like.
func validate(st stmt, r reply) error {
	if !slices.Equal(r.cols, st.Columns) {
		return fmt.Errorf("op %d: columns %v, want %v", st.ID, r.cols, st.Columns)
	}
	if st.Rows >= 0 && len(r.rows) != st.Rows {
		return fmt.Errorf("op %d: %d rows, want %d", st.ID, len(r.rows), st.Rows)
	}
	if len(r.rows) > st.MaxRows {
		return fmt.Errorf("op %d: %d rows, more than the %d the predicates admit", st.ID, len(r.rows), st.MaxRows)
	}
	return nil
}

// retain accounts one validated reply and keeps it when it is in the
// correctness sample.
func (s *served) retain(st stmt, r reply) {
	s.respLLMCalls.Add(r.llmCalls)
	if sampled(s.seed, st.ID) {
		s.mu.Lock()
		s.sample = append(s.sample, relation{st: st, cols: r.cols, rows: r.rows})
		s.mu.Unlock()
	}
}

// progTraceEvery is how often a traced run asks the program for its own
// options.trace tree: a hashed quarter of the statements, which keeps the tracing
// overhead inside its 10 % budget and still gives the admission and
// batch-wait roll-ups hundreds of samples.
const progTraceEvery = 4

func (s *served) wantsProgTrace(st stmt) bool {
	return s.rec != nil && splitmix(uint64(st.ID))%progTraceEvery == 0
}

// sqlReply is the part of the /v1/sql response body the client reads; the
// fleet-metrics snapshot that rides every response is skipped over.
type sqlReply struct {
	Columns  []string   `json:"columns"`
	Rows     [][]string `json:"rows"`
	LLMCalls int64      `json:"llmCalls"`
	Trace    *obs.Trace `json:"trace"`
}

// post serves st over HTTP POST /v1/sql. In the traced run the op's span
// context rides the X-Perf-* headers and every progTraceEvery-th statement
// asks for the program's own trace.
func (s *served) post(ctx context.Context, st stmt, opSpan int64) (reply, error) {
	req := server.SQLRequest{SQL: st.SQL, Client: st.Client, Class: st.Class}
	if s.wantsProgTrace(st) {
		req.Options = &server.SQLOptions{Trace: true}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return reply{}, fmt.Errorf("encode request: %w", err)
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, s.tp.url+"/v1/sql", bytes.NewReader(body))
	if err != nil {
		return reply{}, fmt.Errorf("build request: %w", err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if s.rec != nil {
		hr.Header.Set(opHeader, strconv.FormatInt(st.ID, 10))
		hr.Header.Set(spanHeader, strconv.FormatInt(opSpan, 10))
	}
	resp, err := s.hc.Do(hr)
	if err != nil {
		return reply{}, fmt.Errorf("post: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, fmt.Errorf("read response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("op %d: status %d: %.200s", st.ID, resp.StatusCode, raw)
	}
	var sr sqlReply
	if err := json.Unmarshal(raw, &sr); err != nil {
		return reply{}, fmt.Errorf("decode response: %w", err)
	}
	return reply{cols: sr.Columns, rows: sr.Rows, llmCalls: sr.LLMCalls, trace: sr.Trace}, nil
}

// importTrace copies the program's own span tree for one statement (the
// options.trace spans it already records — the benchmark adds none) into the
// recorder under parent, renaming the two the per-layer report rolls up.
func (s *served) importTrace(tr *obs.Trace, parent, op int64) {
	if tr == nil || tr.Spans == nil {
		return
	}
	var walk func(n *obs.SpanTree, parent int64)
	walk = func(n *obs.SpanTree, parent int64) {
		name := "prog." + n.Name
		switch n.Name {
		case "admission":
			name = "runtime.admission"
		case "batch-wait":
			name = "runtime.batch_wait"
		}
		start := tr.Start.Add(time.Duration(n.StartMs * float64(time.Millisecond)))
		id := s.rec.add(name, parent, op, start, time.Duration(n.DurationMs*float64(time.Millisecond)))
		for _, c := range n.Children {
			walk(c, id)
		}
	}
	walk(tr.Spans, parent)
}

// one serves st over HTTP as one op of the closed loop: span, request,
// validation, retention. It returns the op's wall latency.
func (s *served) one(ctx context.Context, st stmt) (time.Duration, error) {
	opSpan := s.rec.begin("loadgen.op", 0, st.ID)
	t0 := time.Now()
	r, err := s.post(ctx, st, opSpan)
	lat := time.Since(t0)
	s.rec.end(opSpan)
	if err != nil {
		return lat, err
	}
	if err := validate(st, r); err != nil {
		return lat, err
	}
	s.importTrace(r.trace, opSpan, st.ID)
	s.retain(st, r)
	return lat, nil
}

// --- adhoc-cold and fleet-routed -----------------------------------------

// adhocWarmup statements run before the timed phase, on ids of their own.
const (
	adhocWarmup     = 24
	adhocWarmupBase = 10_000_000
)

type adhocSession struct {
	served
}

// setupAdhoc boots the solo (or, with fleet, the router + 2 workers)
// topology over a table of the given size and warms connections and code
// paths with a few statements outside the timed id range.
func setupAdhoc(kind topoKind, rows int) func(context.Context, int64, *recorder) (session, error) {
	return func(ctx context.Context, seed int64, rec *recorder) (session, error) {
		tbl := reviewsTable(seed, rows)
		tp, err := newTopology(ctx, kind, tbl, rec)
		if err != nil {
			return nil, err
		}
		tr := &http.Transport{MaxIdleConnsPerHost: clients()}
		s := &adhocSession{served{seed: seed, tbl: tbl, facts: factsOf(tbl), tp: tp, rec: rec,
			hc: &http.Client{Transport: tr}}}
		for i := int64(0); i < adhocWarmup; i++ {
			s.warm.Attempted++
			st := adhocStmt(seed, adhocWarmupBase+i, s.facts)
			r, err := s.post(ctx, st, 0)
			if err == nil {
				err = validate(st, r)
			}
			if err != nil {
				s.close(ctx)
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			s.warm.OK++
		}
		return s, nil
	}
}

func (s *adhocSession) drive(ctx context.Context, b budget) *drive {
	d := &drive{}
	n := clients()
	var next atomic.Int64
	type clientOut struct {
		lat  []float64
		errs []error
	}
	outs := make([]clientOut, n)
	s.before = s.tp.rt.Metrics()
	d.m.start()
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(o *clientOut) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if b.expired(t0, i) {
					return
				}
				lat, err := s.one(ctx, adhocStmt(s.seed, i, s.facts))
				if err != nil {
					o.errs = append(o.errs, err)
					continue
				}
				o.lat = append(o.lat, float64(lat)/1e6)
			}
		}(&outs[c])
	}
	wg.Wait()
	d.m.stop()
	s.after = s.tp.rt.Metrics()
	for _, o := range outs {
		d.latMs = append(d.latMs, o.lat...)
		d.count.Attempted += int64(len(o.lat) + len(o.errs))
		d.count.OK += int64(len(o.lat))
		for _, err := range o.errs {
			d.fail(err)
		}
	}
	d.count.WallS = d.m.Wall.Seconds()
	d.virt = virtualOf(s.after).sub(virtualOf(s.before))
	return d
}

func (s *adhocSession) opCounts() map[string]int64 {
	return map[string]int64{"tableRows": int64(s.tbl.NumRows()), "llmRowsPerStmt": int64(s.facts.topCritic)}
}

func (s *served) warmup() phase { return s.warm }

func (s *served) close(ctx context.Context) {
	if s.hc != nil {
		s.hc.CloseIdleConnections()
	}
	s.tp.close(ctx)
}

// --- dashboard-refresh -----------------------------------------------------

type dashSession struct {
	served
	days     int
	nextTick int64
}

// setupDashboard boots a listener-less runtime over a table of the given
// size and runs the warm-up ticks, which fill the result cache with the
// first window.
func setupDashboard(rows, warmupTicks int) func(context.Context, int64, *recorder) (session, error) {
	return func(ctx context.Context, seed int64, rec *recorder) (session, error) {
		tbl := reviewsTable(seed, rows)
		tp, err := newTopology(ctx, topoRuntime, tbl, rec)
		if err != nil {
			return nil, err
		}
		s := &dashSession{served: served{seed: seed, tbl: tbl, tp: tp, rec: rec},
			days: tbl.NumRows() / rowsPerDay}
		for ; s.nextTick < int64(warmupTicks); s.nextTick++ {
			_, errs := s.tick(ctx, s.nextTick, false)
			s.warm.Attempted += dashTenants
			if len(errs) > 0 {
				s.close(ctx)
				return nil, fmt.Errorf("warm-up: %w", errs[0])
			}
			s.warm.OK += dashTenants
		}
		return s, nil
	}
}

// submit serves st through the Runtime API the way the HTTP handler does:
// SubmitContext, then Wait on the handle.
func (s *dashSession) submit(ctx context.Context, st stmt) *llmruntime.Handle {
	class, _ := llmruntime.ParseClass(st.Class) // generated classes are valid
	return s.tp.rt.SubmitContext(ctx, st.SQL, llmruntime.Options{
		Client: llmruntime.ClientID(st.Client), Class: class, Trace: s.wantsProgTrace(st)})
}

// tick is one dashboard refresh: the generator goroutine submits all eight
// tenants' statements asynchronously, then waits for every one. Latency is
// per statement, from its Submit to its completion.
func (s *dashSession) tick(ctx context.Context, k int64, keep bool) ([]float64, []error) {
	stmts := dashStmts(s.seed, k, s.days)
	lat := make([]float64, len(stmts))
	errs := make([]error, len(stmts))
	var wg sync.WaitGroup
	for i, st := range stmts {
		opSpan := s.rec.begin("loadgen.op", 0, st.ID)
		t0 := time.Now()
		sctx := ctx
		if s.rec != nil {
			sctx = withSpanRef(ctx, spanRef{span: opSpan, op: st.ID})
		}
		h := s.submit(sctx, st)
		wg.Add(1)
		go func(i int, st stmt) {
			defer wg.Done()
			res, err := h.WaitContext(ctx)
			lat[i] = float64(time.Since(t0)) / 1e6
			s.rec.end(opSpan)
			if err != nil {
				errs[i] = fmt.Errorf("op %d: %w", st.ID, err)
				return
			}
			r := reply{cols: res.Columns, rows: res.Rows, llmCalls: int64(res.LLMCalls), trace: h.Trace()}
			if errs[i] = validate(st, r); errs[i] != nil {
				return
			}
			s.importTrace(r.trace, opSpan, st.ID)
			if keep {
				s.retain(st, r)
			}
		}(i, st)
	}
	wg.Wait()
	var okLat []float64
	var failed []error
	for i := range stmts {
		if errs[i] != nil {
			failed = append(failed, errs[i])
		} else {
			okLat = append(okLat, lat[i])
		}
	}
	return okLat, failed
}

func (s *dashSession) drive(ctx context.Context, b budget) *drive {
	d := &drive{}
	s.before = s.tp.rt.Metrics()
	d.m.start()
	t0 := time.Now()
	for n := int64(0); !b.expired(t0, n*dashTenants); n++ {
		lat, errs := s.tick(ctx, s.nextTick, true)
		s.nextTick++
		d.latMs = append(d.latMs, lat...)
		d.count.Attempted += dashTenants
		d.count.OK += int64(len(lat))
		for _, err := range errs {
			d.fail(err)
		}
	}
	d.m.stop()
	s.after = s.tp.rt.Metrics()
	d.count.WallS = d.m.Wall.Seconds()
	d.virt = virtualOf(s.after).sub(virtualOf(s.before))
	return d
}

func (s *dashSession) opCounts() map[string]int64 {
	return map[string]int64{"tenants": dashTenants, "tableRows": int64(s.tbl.NumRows())}
}
