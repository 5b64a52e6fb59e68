// Router tests run real worker HTTP stacks (internal/server muxes hosted on
// httptest) behind the cluster router and hold it to the seam contract:
// routed relations byte-identical to single-process runs, stage affinity
// that keeps one worker's persistent engines hot across batches, failover
// that degrades instead of failing, and conserved accounting throughout.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/llmsim"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/sqlfront"
	"repro/internal/table"
	"repro/internal/tokenizer"
)

func ticketsTable(rows int) *table.Table {
	t := table.New("ticket_id", "region", "request", "response")
	regions := []string{"emea", "amer", "apac"}
	for i := 0; i < rows; i++ {
		t.MustAppendRow(
			fmt.Sprintf("T-%04d", i),
			regions[i%len(regions)],
			fmt.Sprintf("my device model %d stopped working after the update", i%7),
			fmt.Sprintf("we suggest resetting configuration profile %d and retrying", i%5),
		)
	}
	return t
}

// testPrompts is the tokenizer every statement in these tests shares, as a
// Runtime's statements do: without one, each stage tokenizes on its own, so
// its batch carries a stage key of its own and lands wherever that hashes.
var testPrompts = query.NewPromptCache(0)

func execWith(t *testing.T, be backend.Backend, sql string) *sqlfront.Result {
	t.Helper()
	db := sqlfront.NewDB()
	db.Register("tickets", ticketsTable(24))
	res, err := db.Exec(sql, sqlfront.ExecConfig{Config: query.Config{Backend: be, PromptCache: testPrompts}})
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	return res
}

// startWorker hosts a full worker HTTP stack (the same mux llmqserve -worker
// serves) over the given local backend and returns its server.
func startWorker(be backend.Backend) (*httptest.Server, *server.Worker) {
	wk := server.NewWorker(be, nil)
	return httptest.NewServer(server.NewWithConfig(server.Config{Worker: wk})), wk
}

// tapWorker is startWorker with a wire tap: every /v1/batch body the worker
// receives is decoded and handed to tap before the worker serves it.
func tapWorker(be backend.Backend, tap func(backend.WireBatch)) *httptest.Server {
	mux := server.NewWithConfig(server.Config{Worker: server.NewWorker(be, nil)})
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/batch" {
			body, _ := io.ReadAll(r.Body)
			var wb backend.WireBatch
			if json.Unmarshal(body, &wb) == nil {
				tap(wb)
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		mux.ServeHTTP(w, r)
	}))
}

// newCluster boots n workers, each over its own backend from mk, and a
// router across them. Close order matters: router first, then workers.
func newCluster(t *testing.T, n int, mk func() backend.Backend, cfg cluster.Config) (*cluster.Router, []*httptest.Server) {
	t.Helper()
	var srvs []*httptest.Server
	for i := 0; i < n; i++ {
		srv, _ := startWorker(mk())
		srvs = append(srvs, srv)
		cfg.Workers = append(cfg.Workers, srv.URL)
	}
	rt, err := cluster.NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		rt.Close()
		for _, s := range srvs {
			s.Close()
		}
	})
	return rt, srvs
}

var clusterStatements = []string{
	`SELECT ticket_id, LLM('Did the response resolve the request?', request, response) AS ok
	 FROM tickets WHERE region = 'emea'`,
	`SELECT ticket_id FROM tickets
	 WHERE LLM('Is the request about a hardware fault?', request) = 'Yes' AND region <> 'apac'`,
	`SELECT region, COUNT(*) AS n, AVG(LLM('Rate the anger 1-5.', request)) AS anger
	 FROM tickets GROUP BY region ORDER BY n DESC, region`,
}

// TestClusterIdenticalRelations is the distributed tier's correctness bar:
// the same statements through a 2-worker cluster return relations and
// model-call counts byte-identical to the single-process oracle, and the
// batches demonstrably went over the wire.
func TestClusterIdenticalRelations(t *testing.T) {
	rt, _ := newCluster(t, 2, func() backend.Backend { return backend.NewSim() },
		cluster.Config{}.With(cluster.Timings{HealthInterval: -1}))
	for _, sql := range clusterStatements {
		want := execWith(t, nil, sql) // nil = single-process default backend
		got := execWith(t, rt, sql)
		if fmt.Sprint(got.Columns) != fmt.Sprint(want.Columns) {
			t.Errorf("%q: columns differ: %v vs %v", sql, got.Columns, want.Columns)
		}
		if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
			t.Errorf("%q: rows differ\nwant %v\ngot  %v", sql, want.Rows, got.Rows)
		}
		if got.LLMCalls != want.LLMCalls {
			t.Errorf("%q: model calls = %d, oracle made %d", sql, got.LLMCalls, want.LLMCalls)
		}
	}
	var remote int64
	for _, wm := range rt.Metrics().Workers {
		remote += wm.Batches
	}
	if remote == 0 {
		t.Error("no remote batches recorded: statements did not go over the wire")
	}
}

// TestClusterStageAffinity pins the tentpole property: two batch windows
// sharing a stage key land on the SAME stage-affine worker, whose persistent
// engine carries the prefix cache across them — cumulative hit tokens
// strictly above the per-batch sim baseline, relations identical. The
// workers serve whole batches (a Sharded of width 1, which NewWorker does
// not wrap again): that is the condition the inequality is stated under.
// Hedging is off: the test counts which workers served, and a hedge is a
// second one.
func TestClusterStageAffinity(t *testing.T) {
	stmts := []string{
		`SELECT ticket_id, LLM('Did the response resolve the request?', request, response) AS ok
		 FROM tickets WHERE region = 'emea'`,
		`SELECT ticket_id, LLM('Did the response resolve the request?', request, response) AS ok
		 FROM tickets WHERE region = 'amer'`,
	}
	run := func(be backend.Backend) (int64, []*sqlfront.Result) {
		rec := backend.NewRecording(be)
		var results []*sqlfront.Result
		for _, sql := range stmts {
			results = append(results, execWith(t, rec, sql))
		}
		var matched int64
		for _, b := range rec.Batches() {
			matched += b.Metrics.MatchedTokens
		}
		return matched, results
	}

	simHit, simRes := run(backend.NewSim())

	whole := func() backend.Backend {
		be, err := backend.NewSharded(backend.NewPersistent(0), 1)
		if err != nil {
			t.Fatal(err)
		}
		return be
	}
	rt, _ := newCluster(t, 2, whole, cluster.Config{}.With(cluster.Timings{HealthInterval: -1, HedgeAfter: -1}))
	clusterHit, clusterRes := run(rt)

	if clusterHit <= simHit {
		t.Errorf("cluster hit tokens = %d, want strictly above per-batch sim's %d (stage affinity keeps the worker's engine warm)",
			clusterHit, simHit)
	}
	for i := range simRes {
		if fmt.Sprint(simRes[i].Rows) != fmt.Sprint(clusterRes[i].Rows) {
			t.Errorf("statement %d: relations differ between sim and cluster", i)
		}
	}

	serving := 0
	for addr, wm := range rt.Metrics().Workers {
		if wm.Batches > 0 {
			serving++
			t.Logf("worker %s served %d batches", addr, wm.Batches)
		}
	}
	if serving != 1 {
		t.Errorf("%d workers served the shared stage, want exactly 1 (stage-affine placement)", serving)
	}
	t.Logf("cumulative hit tokens: sim %d, cluster %d", simHit, clusterHit)
}

// TestClusterFailoverOnKilledWorker: killing the worker serving a stage
// mid-run degrades to failover — the next statement lands on the survivor
// with an identical relation — and the death is visible as a markdown.
// Hedging is off: the victim is found by which worker served, and failover,
// not a hedge, is what must rescue the second statement.
func TestClusterFailoverOnKilledWorker(t *testing.T) {
	rt, srvs := newCluster(t, 2, func() backend.Backend { return backend.NewSim() },
		cluster.Config{}.With(cluster.Timings{HealthInterval: -1, HedgeAfter: -1}))

	sql := clusterStatements[0]
	want := execWith(t, rt, sql)

	// Find and kill the worker that served the stage.
	var victim string
	for addr, wm := range rt.Metrics().Workers {
		if wm.Batches > 0 {
			victim = addr
		}
	}
	if victim == "" {
		t.Fatal("no worker served the first statement")
	}
	for _, s := range srvs {
		if s.URL == victim {
			s.Close()
		}
	}

	got := execWith(t, rt, sql)
	if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
		t.Errorf("relation after failover differs\nwant %v\ngot  %v", want.Rows, got.Rows)
	}

	// A further statement places with the victim already marked down, so the
	// stage is served off its ring owner — a counted ring move.
	execWith(t, rt, sql)

	m := rt.Metrics()
	if wm := m.Workers[victim]; wm.Markdowns < 1 || !wm.Down {
		t.Errorf("killed worker %s = %+v, want marked down with Markdowns >= 1", victim, wm)
	}
	survived := false
	for addr, wm := range m.Workers {
		if addr != victim && wm.Batches > 0 {
			survived = true
		}
	}
	if !survived {
		t.Error("no surviving worker served the failed-over statement")
	}
	if m.RingMoves < 1 {
		t.Errorf("ring moves = %d, want >= 1 (stage served off its dead owner)", m.RingMoves)
	}
}

// clusterSpec hand-builds a grouped BatchSpec for seam-level router tests:
// one group per element of groups, that many requests in it. Prompts share
// their first half within a group and nothing across groups, so an engine
// that serves the spec reports group-shaped prefix hits.
func clusterSpec(stageKey string, groups []int, promptLen, outTokens int) backend.BatchSpec {
	spec := backend.BatchSpec{StageKey: stageKey, Engine: llmsim.Config{
		Cost:         llmsim.CostModel{Model: llmsim.Llama3_8B, Cluster: llmsim.SingleL4},
		CacheEnabled: true,
	}}
	for g, n := range groups {
		spec.Groups = append(spec.Groups, len(spec.Requests))
		for i := 0; i < n; i++ {
			id := len(spec.Requests)
			prompt := make([]tokenizer.Token, promptLen)
			for j := range prompt {
				if j < promptLen/2 {
					prompt[j] = tokenizer.Token(1000*(g+1) + j)
				} else {
					prompt[j] = tokenizer.Token(100000*(id+1) + j)
				}
			}
			spec.Requests = append(spec.Requests, &llmsim.Request{ID: id, Prompt: prompt, OutTokens: outTokens})
		}
	}
	return spec
}

// gateBackend parks its first park batches until released and counts the
// requests it served. Batches that do not park are served by inner, or, with
// no inner, answered with a bare call count. One instance may sit behind
// several workers so they share a ledger.
type gateBackend struct {
	inner backend.Backend
	park  int

	mu      sync.Mutex
	calls   int
	rows    int
	started chan struct{} // closed when the first batch parks
	release chan struct{}
}

func newGateBackend() *gateBackend {
	return &gateBackend{park: 1, started: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateBackend) RunBatch(ctx context.Context, spec backend.BatchSpec) (backend.BatchResult, error) {
	g.mu.Lock()
	g.calls++
	g.rows += len(spec.Requests)
	call := g.calls
	g.mu.Unlock()
	if call == 1 {
		close(g.started)
	}
	if call <= g.park {
		select {
		case <-g.release:
		case <-ctx.Done():
			return backend.BatchResult{}, ctx.Err()
		}
	}
	if g.inner != nil {
		return g.inner.RunBatch(ctx, spec)
	}
	return backend.BatchResult{ModelCalls: len(spec.Requests)}, nil
}

func (g *gateBackend) Close() error { return nil }

func (g *gateBackend) parked() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return min(g.calls, g.park)
}

// TestClusterSaturatedPrimaryKeepsBatchWhole: a stage's owner with four
// whole batches in flight — the load past which the router once cut the
// next batch in two with its ring successor — still gets that stage's next
// batch whole: one /v1/batch carrying every request and its group starts,
// answered while the four stay parked. Hedging is off: both workers share
// one ledger, and a hedged copy would be a second request.
func TestClusterSaturatedPrimaryKeepsBatchWhole(t *testing.T) {
	const parked = 4
	gate := newGateBackend()
	gate.park = parked
	var mu sync.Mutex
	var got [2][]backend.WireBatch
	var addrs []string
	for i := range got {
		srv := tapWorker(gate, func(wb backend.WireBatch) {
			mu.Lock()
			defer mu.Unlock()
			got[i] = append(got[i], wb)
		})
		t.Cleanup(srv.Close)
		addrs = append(addrs, srv.URL)
	}
	rt, err := cluster.NewRouter(cluster.Config{Workers: addrs}.With(cluster.Timings{HealthInterval: -1, HedgeAfter: -1}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	var release sync.Once
	// Registered last, so it runs first: a failed test must not leave the
	// parked batches holding the servers' Close.
	t.Cleanup(func() { release.Do(func() { close(gate.release) }) })

	var others sync.WaitGroup
	for i := 0; i < parked; i++ {
		others.Add(1)
		go func() {
			defer others.Done()
			if _, err := rt.RunBatch(context.Background(), clusterSpec("hot", []int{1}, 16, 4)); err != nil {
				t.Errorf("parked batch: %v", err)
			}
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); gate.parked() < parked; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d batches parked", gate.parked(), parked)
		}
		time.Sleep(time.Millisecond)
	}

	res, err := rt.RunBatch(context.Background(), clusterSpec("hot", []int{2, 2, 2, 2}, 16, 4))
	if err != nil {
		t.Fatalf("batch on the saturated owner: %v", err)
	}
	if res.ModelCalls != 8 {
		t.Errorf("model calls = %d, want 8", res.ModelCalls)
	}

	// Checked while the four are still parked: the batch did not queue
	// behind them, and only the owner saw any traffic.
	mu.Lock()
	arrived := got
	mu.Unlock()
	owner := 0
	if len(arrived[1]) > 0 {
		owner = 1
	}
	if n := len(arrived[1-owner]); n != 0 {
		t.Errorf("the owner's ring successor received %d batches, want 0", n)
	}
	if n := len(arrived[owner]); n != parked+1 {
		t.Fatalf("the owner received %d batches, want %d (the parked ones and the whole batch)", n, parked+1)
	}
	var whole *backend.WireBatch
	for i, wb := range arrived[owner] {
		if len(wb.Requests) != 1 {
			whole = &arrived[owner][i]
		}
	}
	if whole == nil {
		t.Fatal("the owner received only the parked batches")
	}
	if len(whole.Requests) != 8 || !slices.Equal(whole.Groups, []int{0, 2, 4, 6}) {
		t.Fatalf("the owner received %d requests in groups starting at %v, want 8 in [0 2 4 6]", len(whole.Requests), whole.Groups)
	}
	if _, err := whole.Spec(); err != nil {
		t.Errorf("the batch arrived with invalid groups %v: %v", whole.Groups, err)
	}

	release.Do(func() { close(gate.release) })
	others.Wait()
}

// TestRouterLoadIndependence: what a batch costs is a function of the batch,
// not of what else is in flight — the same grouped spec returns the same
// BatchResult, field for field, with 0, 1, 2 or 3 other batches parked on
// its primary.
func TestRouterLoadIndependence(t *testing.T) {
	groups := []int{3, 3, 3, 3, 3, 3}
	var want backend.BatchResult
	for parked := 0; parked <= 3; parked++ {
		gate := newGateBackend()
		gate.inner, gate.park = backend.NewSim(), parked
		srv, _ := startWorker(gate)
		rt, err := cluster.NewRouter(cluster.Config{Workers: []string{srv.URL}}.With(cluster.Timings{HealthInterval: -1, HedgeAfter: -1}))
		if err != nil {
			t.Fatal(err)
		}
		var others sync.WaitGroup
		for i := 0; i < parked; i++ {
			others.Add(1)
			go func() {
				defer others.Done()
				if _, err := rt.RunBatch(context.Background(), clusterSpec("stage", []int{2}, 16, 4)); err != nil {
					t.Errorf("parked batch: %v", err)
				}
			}()
		}
		for deadline := time.Now().Add(5 * time.Second); gate.parked() < parked; {
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d batches parked", gate.parked(), parked)
			}
			time.Sleep(time.Millisecond)
		}

		got, err := rt.RunBatch(context.Background(), clusterSpec("stage", groups, 32, 4))
		close(gate.release)
		others.Wait()
		rt.Close()
		srv.Close()
		if err != nil {
			t.Fatalf("%d parked: %v", parked, err)
		}
		if parked == 0 {
			want = got
			if want.Metrics.JCT <= 0 || want.ModelCalls != 18 {
				t.Fatalf("unloaded result = %+v, want a served batch of 18 calls", want)
			}
		} else if got != want {
			t.Errorf("%d batches parked on the primary changed the result:\n got %+v\nwant %+v", parked, got, want)
		}
	}
}

// TestRoutedEqualsSharded: routing adds nothing to what a batch costs — a
// grouped spec through a one-worker router equals the same spec through an
// in-process Sharded of the default width, field for field, and it crossed
// the wire as exactly one /v1/batch request.
func TestRoutedEqualsSharded(t *testing.T) {
	groups := []int{4, 1, 3, 2, 5, 2}
	local, err := backend.NewSharded(backend.NewSim(), backend.DefaultShards)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.RunBatch(context.Background(), clusterSpec("stage", groups, 32, 4))
	if err != nil {
		t.Fatal(err)
	}

	var requests atomic.Int64
	srv := tapWorker(backend.NewSim(), func(backend.WireBatch) { requests.Add(1) })
	defer srv.Close()
	rt, err := cluster.NewRouter(cluster.Config{Workers: []string{srv.URL}}.With(cluster.Timings{HealthInterval: -1, HedgeAfter: -1}))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	got, err := rt.RunBatch(context.Background(), clusterSpec("stage", groups, 32, 4))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("routed result differs from in-process sharded:\n got %+v\nwant %+v", got, want)
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("worker saw %d /v1/batch requests, want exactly 1", n)
	}
}

// TestClusterRefusesDeadContext: the router honors the Backend contract's
// cancellation clause at entry.
func TestClusterRefusesDeadContext(t *testing.T) {
	rt, _ := newCluster(t, 2, func() backend.Backend { return backend.NewSim() },
		cluster.Config{}.With(cluster.Timings{HealthInterval: -1}))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := rt.RunBatch(ctx, clusterSpec("any", []int{2}, 8, 4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestClusterHealthRecovery: a worker that dies is marked down by the probe
// loop and recovers (marked up, serving again) once its /healthz answers —
// mark-down and mark-up both happen without any batch traffic.
func TestClusterHealthRecovery(t *testing.T) {
	be := backend.NewSim()
	defer be.Close()
	wk := server.NewWorker(be, nil)
	srv := httptest.NewServer(server.NewWithConfig(server.Config{Worker: wk}))
	defer srv.Close()

	rt, err := cluster.NewRouter(cluster.Config{Workers: []string{srv.URL}}.With(cluster.Timings{HealthInterval: 10 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	waitFor := func(desc string, pred func(cluster.WorkerMetrics) bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if pred(rt.Metrics().Workers[srv.URL]) {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for worker to be %s", desc)
	}

	// Draining flips /healthz to 503: the probe loop marks the worker down.
	wk.SetDraining(true)
	waitFor("marked down", func(wm cluster.WorkerMetrics) bool { return wm.Down })

	// Un-draining restores 200: the next probe marks it back up.
	wk.SetDraining(false)
	waitFor("marked up", func(wm cluster.WorkerMetrics) bool { return !wm.Down })
}

// faultedRouter boots n workers, each over its own backend from mk, behind a
// router whose client runs every /v1/batch through the fault spec. Health
// probes and hedging are off, so the injector's Events count exactly the
// batch POSTs the router made.
func faultedRouter(t *testing.T, n int, mk func() backend.Backend, spec string) (*cluster.Router, *faults.Injector, []*httptest.Server) {
	t.Helper()
	inj, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{HTTPClient: &http.Client{Transport: faults.NewRoundTripper(nil, inj)}}
	rt, srvs := newCluster(t, n, mk, cfg.With(cluster.Timings{HealthInterval: -1, HedgeAfter: -1}))
	return rt, inj, srvs
}

// TestRouterDeadFleetCostsOneAttemptPerWorker: with every worker answering
// 503, the breakers are the retry budget — once every circuit is open a
// batch costs one attempt per worker and fails without pausing, so K
// batches cost at most (K+1)·N POSTs.
func TestRouterDeadFleetCostsOneAttemptPerWorker(t *testing.T) {
	const workers, batches = 3, 20
	rt, inj, _ := faultedRouter(t, workers, func() backend.Backend { return backend.NewSim() }, "seed=1;5xx")
	for i := 0; i < batches; i++ {
		if _, err := rt.RunBatch(context.Background(), clusterSpec(fmt.Sprintf("dead-%d", i), []int{2}, 16, 4)); err == nil {
			t.Fatalf("batch %d succeeded on a fleet that only answers 503", i)
		}
	}
	if posts, bound := inj.Stats().Events, int64((batches+1)*workers); posts > bound {
		t.Errorf("%d batches cost %d POSTs, want at most %d", batches, posts, bound)
	}
}

// TestRouterFailsOverBeforePausing: an owner that answers 503 once costs the
// batch no pause — the ring successor serves it at once, the owner is
// charged one retry, and the batch counts as a ring move.
func TestRouterFailsOverBeforePausing(t *testing.T) {
	rt, _, _ := faultedRouter(t, 2, func() backend.Backend { return backend.NewSim() }, "seed=1;5xx:count=1")
	start := time.Now()
	if _, err := rt.RunBatch(context.Background(), clusterSpec("blip", []int{2}, 16, 4)); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el >= 12500*time.Microsecond {
		t.Errorf("batch took %v, want under the 12.5 ms pause floor (no pause before failover)", el)
	}
	m := rt.Metrics()
	var owner, successor cluster.WorkerMetrics
	for _, wm := range m.Workers {
		if wm.Retries > 0 {
			owner = wm
		} else {
			successor = wm
		}
	}
	if owner.Retries != 1 || owner.Batches != 0 || successor.Batches != 1 {
		t.Errorf("owner %+v, successor %+v: want the owner charged 1 retry and the successor serving", owner, successor)
	}
	if m.RingMoves != 1 {
		t.Errorf("ring moves = %d, want 1", m.RingMoves)
	}
}

// TestRouterRetryConservation: on a one-worker fleet whose first POST gets a
// 500, the batch costs exactly two POSTs, and accounting is conserved — the
// worker serves each request once and the result counts it once.
func TestRouterRetryConservation(t *testing.T) {
	gate := &gateBackend{inner: backend.NewSim(), started: make(chan struct{})}
	rt, inj, srvs := faultedRouter(t, 1, func() backend.Backend { return gate }, "seed=1;5xx:count=1:status=500")
	spec := clusterSpec("conserve", []int{3, 2}, 40, 8)
	res, err := rt.RunBatch(context.Background(), spec)
	if err != nil {
		t.Fatalf("RunBatch after a transient 500: %v", err)
	}
	if res.ModelCalls != len(spec.Requests) {
		t.Errorf("model calls = %d, want %d", res.ModelCalls, len(spec.Requests))
	}
	if res.Metrics.PromptTokens != int64(5*40) {
		t.Errorf("prompt tokens = %d, want %d (one serve, conserved)", res.Metrics.PromptTokens, 5*40)
	}
	if got := inj.Stats().Events; got != 2 {
		t.Errorf("router made %d POSTs, want 2 (one failure + one retry)", got)
	}
	gate.mu.Lock()
	served := gate.rows
	gate.mu.Unlock()
	if served != len(spec.Requests) {
		t.Errorf("worker served %d requests, want exactly %d (each once)", served, len(spec.Requests))
	}
	if wm := rt.Metrics().Workers[srvs[0].URL]; wm.Batches != 1 || wm.Retries != 1 || wm.Errors != 1 {
		t.Errorf("worker metrics = %+v, want {Batches:1 Retries:1 Errors:1}", wm)
	}
}

// TestRouterDeadlineShorterThanPause: when the remaining deadline is shorter
// than the pause before the next pass, the pause is cut short by the
// context — the walk never retries past the deadline.
func TestRouterDeadlineShorterThanPause(t *testing.T) {
	rt, inj, _ := faultedRouter(t, 1, func() backend.Backend { return backend.NewSim() }, "seed=1;5xx")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := rt.RunBatch(ctx, clusterSpec("deadlined", []int{1}, 16, 4))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if el := time.Since(start); el >= 12500*time.Microsecond {
		t.Errorf("deadline-bounded batch took %v: the pause outlived the 5 ms deadline", el)
	}
	if got := inj.Stats().Events; got > 1 {
		t.Errorf("router made %d POSTs, want at most 1 (no retry fits inside the deadline)", got)
	}
}

// TestClusterRingMoveCountsInlineFailover: a batch whose owner was killed is
// served by the ring successor within the same walk, and that counts as a
// ring move although the owner still led the candidate list.
func TestClusterRingMoveCountsInlineFailover(t *testing.T) {
	rt, srvs := newCluster(t, 2, func() backend.Backend { return backend.NewSim() },
		cluster.Config{}.With(cluster.Timings{HealthInterval: -1, HedgeAfter: -1}))
	spec := clusterSpec("moved", []int{2}, 16, 4)
	if _, err := rt.RunBatch(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	for _, s := range srvs {
		if rt.Metrics().Workers[s.URL].Batches > 0 {
			s.Close() // the owner
		}
	}
	if _, err := rt.RunBatch(context.Background(), spec); err != nil {
		t.Fatalf("batch with its owner killed: %v", err)
	}
	if m := rt.Metrics(); m.RingMoves != 1 {
		t.Errorf("ring moves = %d, want 1 (served off its killed owner)", m.RingMoves)
	}
}
