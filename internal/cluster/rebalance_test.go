// Live fleet membership tests: workers join and leave a serving router
// without dropping in-flight batches.
package cluster_test

import (
	"context"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/cluster"
)

// TestLiveRemoveWorkerDrainsInFlight is the live-rebalance pin: a batch is
// parked on a worker, that worker leaves the fleet mid-flight, and the batch
// still completes on its old assignment — zero dropped work — while new
// routing excludes the leaver immediately.
func TestLiveRemoveWorkerDrainsInFlight(t *testing.T) {
	gates := make(map[string]*gateBackend, 3)
	var srvs []*httptest.Server
	var addrs []string
	for i := 0; i < 3; i++ {
		g := newGateBackend()
		srv, _ := startWorker(g)
		defer srv.Close()
		gates[srv.URL] = g
		srvs = append(srvs, srv)
		addrs = append(addrs, srv.URL)
	}
	_ = srvs

	rt, err := cluster.NewRouter(cluster.Config{Workers: addrs}.With(cluster.Timings{
		HealthInterval: -1,
		HedgeAfter:     -1, // a hedge would rescue the parked batch and mask the drain
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	done := make(chan error, 1)
	go func() {
		_, err := rt.RunBatch(context.Background(), clusterSpec("drain-stage", []int{2}, 16, 4))
		done <- err
	}()

	// Find the worker actually serving the parked batch.
	var serving string
	select {
	case serving = <-firstStarted(gates):
	case <-time.After(5 * time.Second):
		t.Fatal("no worker picked up the batch")
	}

	if err := rt.RemoveWorker(serving); err != nil {
		t.Fatalf("remove mid-flight: %v", err)
	}
	if got := rt.Workers(); slices.Contains(got, serving) {
		t.Fatalf("removed worker %s still listed in %v", serving, got)
	}
	if len(rt.Workers()) != 2 {
		t.Fatalf("fleet size = %d, want 2", len(rt.Workers()))
	}

	// The parked batch is still in flight on the leaver; release it.
	close(gates[serving].release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("in-flight batch dropped during rebalance: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight batch never completed after the drain release")
	}

	m := rt.Metrics()
	if m.RebalanceLeaves != 1 {
		t.Errorf("rebalance leaves = %d, want 1", m.RebalanceLeaves)
	}
	// Post-drain traffic lands on survivors only (un-gate them first so
	// their own first batch doesn't park).
	for a, g := range gates {
		if a != serving {
			close(g.release)
		}
	}
	if _, err := rt.RunBatch(context.Background(), clusterSpec("drain-stage", []int{1}, 16, 4)); err != nil {
		t.Fatalf("post-rebalance batch: %v", err)
	}
	g := gates[serving]
	g.mu.Lock()
	leaverCalls := g.calls
	g.mu.Unlock()
	if leaverCalls > 1 {
		t.Errorf("leaver served %d batches, want 1 (no new work after removal)", leaverCalls)
	}
}

// firstStarted reports which gate signals a parked first batch; buffered so
// late signals from other gates (e.g. post-rebalance traffic) don't block or
// race.
func firstStarted(gates map[string]*gateBackend) <-chan string {
	out := make(chan string, len(gates))
	for a, g := range gates {
		go func(a string, g *gateBackend) {
			<-g.started
			out <- a
		}(a, g)
	}
	return out
}

// TestLiveAddWorkerJoins: a joiner enters the serving fleet, shows up in the
// membership list and counters, and takes traffic for stages the ring now
// assigns to it.
func TestLiveAddWorkerJoins(t *testing.T) {
	mk := func() backend.Backend { return backend.NewSim() }
	rt, srvs := newCluster(t, 2, mk, cluster.Config{}.With(cluster.Timings{HealthInterval: -1, HedgeAfter: -1}))
	defer rt.Close()
	for _, s := range srvs {
		defer s.Close()
	}

	joiner, _ := startWorker(mk())
	defer joiner.Close()

	if err := rt.AddWorker(joiner.URL); err != nil {
		t.Fatal(err)
	}
	if err := rt.AddWorker(joiner.URL); err == nil {
		t.Fatal("duplicate join was accepted")
	}
	if got := rt.Workers(); !slices.Contains(got, joiner.URL) || len(got) != 3 {
		t.Fatalf("workers = %v, want 3 including the joiner", got)
	}
	if m := rt.Metrics(); m.RebalanceJoins != 1 {
		t.Errorf("rebalance joins = %d, want 1", m.RebalanceJoins)
	}

	// Spray enough distinct stages that the joiner owns some (~1/3).
	for i := 0; i < 24; i++ {
		spec := clusterSpec(string(rune('a'+i))+"-stage", []int{1}, 16, 4)
		if _, err := rt.RunBatch(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
	}
	wm := rt.Metrics().Workers[joiner.URL]
	if wm.Batches == 0 {
		t.Error("joiner served no batches across 24 distinct stages")
	}
	t.Logf("joiner served %d/24 stage batches", wm.Batches)
}

// TestRemoveLastWorkerRefused: the fleet never shrinks to zero.
func TestRemoveLastWorkerRefused(t *testing.T) {
	srv, _ := startWorker(backend.NewSim())
	defer srv.Close()
	rt, err := cluster.NewRouter(cluster.Config{Workers: []string{srv.URL}}.With(cluster.Timings{HealthInterval: -1}))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if err := rt.RemoveWorker(srv.URL); err == nil {
		t.Fatal("removing the last worker was accepted")
	}
	if err := rt.RemoveWorker("http://nope:1"); err == nil {
		t.Fatal("removing an unknown worker was accepted")
	}
}
