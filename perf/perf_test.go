package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
)

// tiny sizes every workload down so the whole suite smokes in seconds.
var tiny = sizes{batchScale: 0.004, dashRows: 1_200, dashWarmup: 3, adhocRows: 64}

// tinyOps is the op budget of a smoke run.
var tinyOps = map[string]int64{"batch-analytics": 32, "dashboard-refresh": 48, "adhoc-cold": 36, "fleet-routed": 36}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(body, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestDeclarationsMatchBenchmarkJSON holds the compiled-in workload and
// metric tables and BENCHMARK.json to each other, in both directions.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	var wantW, gotW []string
	for _, w := range workloads {
		wantW = append(wantW, w.name+"|"+w.why)
	}
	for _, w := range bj.Workloads {
		gotW = append(gotW, w.Name+"|"+w.Why)
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200", w.Name)
		}
	}
	if !slices.Equal(wantW, gotW) {
		t.Errorf("workloads differ:\n code %q\n json %q", wantW, gotW)
	}

	type row struct{ name, unit, better string }
	var wantE, gotE, wantL, gotL []row
	for _, d := range endToEndDefs {
		wantE = append(wantE, row{d.Name, d.Unit, d.Better})
	}
	sawSetup := false
	for _, m := range bj.EndToEnd {
		gotE = append(gotE, row{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, d := range perLayerDefs {
		wantL = append(wantL, row{d.Name, d.Unit, d.Better})
	}
	for _, m := range bj.PerLayer {
		gotL = append(gotL, row{m.Name, m.Unit, m.Better})
	}
	if !slices.Equal(wantE, gotE) {
		t.Errorf("end_to_end differs:\n code %v\n json %v", wantE, gotE)
	}
	if !slices.Equal(wantL, gotL) {
		t.Errorf("per_layer differs:\n code %v\n json %v", wantL, gotL)
	}
	if !sawSetup {
		t.Error("end_to_end lacks setup_s [s, lower]")
	}
	seen := map[string]bool{}
	for _, r := range append(append([]row(nil), gotE...), gotL...) {
		if !name.MatchString(r.name) || !unit.MatchString(r.unit) || (r.better != "lower" && r.better != "higher") {
			t.Errorf("metric %+v breaks the naming contract", r)
		}
		if seen[r.name] {
			t.Errorf("metric %s declared twice", r.name)
		}
		seen[r.name] = true
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", bj.RunSeconds, defaultSeconds)
	}
	if !slices.Equal(bj.Paths, []string{"perf"}) {
		t.Errorf("paths = %v", bj.Paths)
	}
}

// exactOn lists the virtual counters that must repeat bit for bit across
// same-seed, same-op-count runs of a workload. Where statements coalesce
// (dashboard-refresh) or parts race (fleet-routed), which rows share an
// engine run depends on timing, so only the call count is exact there.
func exactOn(workload string) []string {
	switch workload {
	case "batch-analytics", "adhoc-cold":
		return []string{"llm_calls_per_op", "jct_virtual_s", "prefix_hit_rate", "jct_speedup_vs_original"}
	default:
		return []string{"llm_calls_per_op"}
	}
}

// TestSmoke runs all four workloads at tiny op counts: twice untraced on one
// seed (exact counters must repeat) and once traced (every emitted
// per-layer name must be declared, and the checks must hold).
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	declared := map[string]bool{}
	for _, d := range perLayerDefs {
		declared[d.Name] = true
	}
	for _, w := range workloadsOf(tiny) {
		t.Run(w.name, func(t *testing.T) {
			b := budget{Ops: tinyOps[w.name]}
			var runs []map[string]float64
			for i := 0; i < 2; i++ {
				o, err := runWorkload(ctx, w, 11, b, false, 1)
				if err != nil {
					t.Fatal(err)
				}
				if o.d.count.Failed != 0 || len(o.violations) != 0 || o.d.count.OK < b.Ops {
					t.Fatalf("run %d: %d ok, failed %v, violations %v", i, o.d.count.OK, o.d.errs, o.violations)
				}
				v := endToEnd(o)
				if len(v) != len(endToEndDefs) {
					t.Fatalf("emitted %d end-to-end metrics, declared %d", len(v), len(endToEndDefs))
				}
				for _, d := range endToEndDefs {
					if x, ok := v[d.Name]; !ok || x <= 0 {
						t.Errorf("%s = %v: end-to-end metrics are never 0", d.Name, x)
					}
				}
				runs = append(runs, v)
			}
			for _, name := range exactOn(w.name) {
				if runs[0][name] != runs[1][name] {
					t.Errorf("%s did not repeat exactly: %v then %v", name, runs[0][name], runs[1][name])
				}
			}

			o, err := runWorkload(ctx, w, 11, b, true, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(o.violations) != 0 || o.d.count.Failed != 0 {
				t.Fatalf("traced run: failed %v, violations %v", o.d.errs, o.violations)
			}
			if len(o.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
			for name := range o.layers {
				if !declared[name] {
					t.Errorf("traced run emitted undeclared metric %s", name)
				}
			}
			served := w.name == "adhoc-cold" || w.name == "fleet-routed"
			if got := o.layers["server.handle_ms_p50"] > 0; got != served {
				t.Errorf("server.* present = %v, want %v", got, served)
			}
			if got := o.layers["cluster.round_trip_ms_p50"] > 0; got != (w.name == "fleet-routed") {
				t.Errorf("cluster.* present = %v on %s", got, w.name)
			}
			if got := o.layers["backend.wire_bytes_per_request"] > 0; got != (w.name == "fleet-routed") {
				t.Errorf("backend.wire_* present = %v on %s", got, w.name)
			}
		})
	}
}

func TestSeedChangesGeneratedStatements(t *testing.T) {
	f := tableFacts{topCritic: 10, topCriticGenres: 3}
	for i := int64(0); i < 3; i++ {
		if adhocStmt(1, i, f).SQL == adhocStmt(2, i, f).SQL {
			t.Errorf("ad-hoc statement %d is the same text under seeds 1 and 2", i)
		}
		if adhocStmt(1, i, f).SQL != adhocStmt(1, i, f).SQL {
			t.Errorf("ad-hoc statement %d is not a function of (seed, i)", i)
		}
	}
	a, b := dashStmts(1, 0, 600), dashStmts(2, 0, 600)
	for i := range a {
		if a[i].SQL == b[i].SQL {
			t.Errorf("dashboard statement %d is the same text under seeds 1 and 2", i)
		}
	}
	if reviewsTable(1, 32).Row(0)[4] == reviewsTable(2, 32).Row(0)[4] {
		t.Error("table content does not depend on the seed")
	}
	ids := map[string]bool{}
	for i := int64(0); i < 300; i++ {
		sql := adhocStmt(1, i, f).SQL
		if ids[sql] {
			t.Fatalf("ad-hoc statement %d repeats an earlier text", i)
		}
		ids[sql] = true
	}
}
