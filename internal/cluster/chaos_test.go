// Chaos conformance suite: the correctness bar under injected faults. For
// every fault profile the fleet must return relations byte-identical to the
// fault-free single-process oracle with conserved model-call accounting —
// faults may cost retries, failovers, and hedges, never answers.
package cluster_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/server"
)

// chaosProfiles are the wire-fault mixes driven through the router's HTTP
// client. Every profile is seeded (deterministic replay) and bounded (count=
// or probability + retries) so each statement eventually lands.
var chaosProfiles = []struct {
	name string
	spec string
}{
	{"latency-spikes", "seed=11;latency:delay=30ms:p=0.5"},
	{"5xx-burst", "seed=12;5xx:count=4"},
	{"conn-errors", "seed=13;conn:p=0.4:count=6"},
	{"corrupt-bodies", "seed=14;corrupt:count=3"},
	{"hang-capped", "seed=15;hang:delay=40ms:count=2"},
	{"mixed-storm", "seed=16;latency:delay=10ms:p=0.3;5xx:count=2;conn:count=2;corrupt:count=1"},
}

// chaosConfig is the router tuning shared by the conformance runs: fast
// retries, no background probes (the faults are the only failure source).
func chaosConfig() cluster.Config {
	return cluster.Config{
		HealthInterval: -1,
		MaxRetries:     3,
		RetryBackoff:   time.Millisecond,
	}
}

// TestChaosConformance runs the full statement set through a 3-worker fleet
// under each fault profile and diffs rows, columns, and model-call counts
// against the fault-free oracle.
func TestChaosConformance(t *testing.T) {
	for _, prof := range chaosProfiles {
		t.Run(prof.name, func(t *testing.T) {
			inj, err := faults.Parse(prof.spec)
			if err != nil {
				t.Fatalf("parse %q: %v", prof.spec, err)
			}
			cfg := chaosConfig()
			cfg.HTTPClient = &http.Client{Transport: faults.NewRoundTripper(nil, inj)}
			rt, _ := newCluster(t, 3, func() backend.Backend { return backend.NewSim() }, cfg)

			for _, sql := range clusterStatements {
				want := execWith(t, nil, sql) // fault-free single-process oracle
				got := execWith(t, rt, sql)
				if fmt.Sprint(got.Columns) != fmt.Sprint(want.Columns) {
					t.Errorf("%q: columns differ under %s", sql, prof.name)
				}
				if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
					t.Errorf("%q: rows differ under %s\nwant %v\ngot  %v", sql, prof.name, want.Rows, got.Rows)
				}
				if got.LLMCalls != want.LLMCalls {
					t.Errorf("%q: model calls = %d, oracle made %d (accounting not conserved under %s)",
						sql, got.LLMCalls, want.LLMCalls, prof.name)
				}
			}

			st := inj.Stats()
			if st.Injected == 0 {
				t.Errorf("profile %s injected no faults — the run proved nothing", prof.name)
			}
			t.Logf("profile %s: %d events, %d injected (latency=%d 5xx=%d conn=%d corrupt=%d hang=%d)",
				prof.name, st.Events, st.Injected, st.Latency, st.Err5xx, st.Conn, st.Corrupt, st.Hang)
		})
	}
}

// TestChaosDeterministicInjection: two identical chaos runs draw identical
// fault sequences — the replay property operators rely on to reproduce a
// chaos failure from its spec.
func TestChaosDeterministicInjection(t *testing.T) {
	run := func() faults.Stats {
		inj, err := faults.Parse("seed=99;5xx:count=3;latency:delay=5ms:p=0.5")
		if err != nil {
			t.Fatal(err)
		}
		cfg := chaosConfig()
		cfg.HTTPClient = &http.Client{Transport: faults.NewRoundTripper(nil, inj)}
		rt, _ := newCluster(t, 2, func() backend.Backend { return backend.NewSim() }, cfg)
		if _, err := rt.RunBatch(t.Context(), clusterSpec("replay-stage", []int{4, 4}, 16, 4)); err != nil {
			t.Fatal(err)
		}
		return inj.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("identical chaos runs diverged:\n%+v\n%+v", a, b)
	}
}

// TestChaosCrashedWorkerBreakerOpens: one worker of three is crash-latched
// via the server-side middleware (connection aborts, indistinguishable from
// a killed process). Statements stay byte-identical, the crashed worker's
// circuit opens, and the fleet reports it down. Hedging is off so the
// crashed primary's failure is always observed (a winning hedge would
// cancel it first and mask the markdown — that race has its own tests).
func TestChaosCrashedWorkerBreakerOpens(t *testing.T) {
	crashInj, err := faults.Parse("seed=7;crash")
	if err != nil {
		t.Fatal(err)
	}

	var srvs []*httptest.Server
	var crashed string
	cfg := chaosConfig()
	cfg.HedgeAfter = -1
	for i := 0; i < 3; i++ {
		wk := server.NewWorker(backend.NewSim(), nil)
		var h http.Handler = server.NewWithConfig(server.Config{Worker: wk})
		if i == 0 {
			h = faults.Middleware(crashInj, h)
		}
		srv := httptest.NewServer(h)
		defer srv.Close()
		srvs = append(srvs, srv)
		cfg.Workers = append(cfg.Workers, srv.URL)
		if i == 0 {
			crashed = srv.URL
		}
	}
	rt, err := cluster.NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// Two passes over a spray of distinct stages (enough that the crashed
	// worker owns some whatever ports the ring hashed — 16 left it with none
	// once in a few hundred runs): the first discovers the crash inline (failover
	// inside the batch), the second routes with the circuit already open —
	// the owner is demoted in candidate order, which is what RingMoves
	// counts.
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 64; i++ {
			spec := clusterSpec(fmt.Sprintf("crash-stage-%d", i), []int{1}, 16, 4)
			if _, err := rt.RunBatch(context.Background(), spec); err != nil {
				t.Fatalf("pass %d stage %d: batch lost to the crashed worker: %v", pass, i, err)
			}
		}
	}
	// Byte-identity with the crashed worker still in the fleet and its
	// circuit open.
	for _, sql := range clusterStatements {
		want := execWith(t, nil, sql)
		got := execWith(t, rt, sql)
		if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) || got.LLMCalls != want.LLMCalls {
			t.Errorf("%q: diverged with a crashed worker in the fleet", sql)
		}
	}

	m := rt.Metrics()
	wm := m.Workers[crashed]
	if !wm.Down || wm.Breaker == cluster.BreakerClosed {
		t.Errorf("crashed worker breaker = %s down = %v, want open/true", wm.Breaker, wm.Down)
	}
	if wm.Markdowns == 0 {
		t.Error("crashed worker's circuit never opened")
	}
	if m.RingMoves == 0 {
		t.Error("no ring moves recorded: the crashed worker's stages never failed over")
	}
	if st := crashInj.Stats(); st.Crash == 0 {
		t.Error("crash middleware never fired")
	}
}
