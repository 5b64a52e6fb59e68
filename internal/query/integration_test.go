package query

import (
	"context"
	"testing"

	"repro/internal/datagen"
	"repro/internal/oracle"
	"repro/internal/table"
)

// runAny executes any benchmark query over its dataset at tiny scale.
func runAny(t *testing.T, spec Spec, cfg Config) *Result {
	t.Helper()
	opt := datagen.Options{Scale: 0.006, Seed: 11}
	var tbl *table.Table
	switch spec.Type {
	case RAGQA:
		d, err := datagen.RAGByName(spec.Dataset, opt)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err = BuildRAGTable(d)
		if err != nil {
			t.Fatal(err)
		}
	default:
		d, err := datagen.RelationalByName(spec.Dataset, opt)
		if err != nil {
			t.Fatal(err)
		}
		tbl = d.Table
	}
	res, err := RunContext(context.Background(), spec, tbl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAllSixteenQueriesRunEndToEnd exercises every benchmark query under the
// GGR policy: every stage must verify, produce outputs, and account time.
func TestAllSixteenQueriesRunEndToEnd(t *testing.T) {
	for _, spec := range Specs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			res := runAny(t, spec, Config{Policy: CacheGGR})
			if res.JCT <= 0 {
				t.Error("no serving time accounted")
			}
			if len(res.Outputs) == 0 {
				t.Error("no outputs")
			}
			for _, st := range res.Stages {
				if st.Rows > 0 && st.Metrics.PromptTokens == 0 {
					t.Errorf("stage %s: no prompt tokens", st.Spec.Name)
				}
			}
		})
	}
}

// TestSemanticsIdenticalAcrossPoliciesWhenInsensitive pins the optimization
// contract: for datasets whose oracle has no position sensitivity, every
// policy yields byte-identical outputs — reordering changes cost only.
func TestSemanticsIdenticalAcrossPoliciesWhenInsensitive(t *testing.T) {
	// Build a profile with zero coefficients so only scheduling differs.
	neutral := oracle.Profile{Name: "neutral-model", DefaultBase: 0.8}
	specs := []string{"movies-filter", "bird-filter", "products-agg", "fever-rag"}
	for _, name := range specs {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var ref []string
		for _, p := range []Policy{NoCache, CacheOriginal, CacheGGR, CacheBestFixed} {
			res := runAny(t, spec, Config{Policy: p, Oracle: neutral})
			if ref == nil {
				ref = res.Outputs
				continue
			}
			if len(res.Outputs) != len(ref) {
				t.Fatalf("%s/%s: output count changed", name, p)
			}
			for i := range ref {
				if res.Outputs[i] != ref[i] {
					t.Fatalf("%s/%s: row %d output %q != %q — reordering changed semantics",
						name, p, i, res.Outputs[i], ref[i])
				}
			}
		}
	}
}

// TestJCTOrderingAcrossSuite asserts the paper's headline relation (GGR ≤
// Original ≤ NoCache, with slack for decode-dominated cases) on every
// non-RAG query type.
func TestJCTOrderingAcrossSuite(t *testing.T) {
	for _, name := range []string{"movies-filter", "bird-projection", "movies-agg", "products-multi"} {
		spec, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		jct := map[Policy]float64{}
		for _, p := range Policies {
			jct[p] = runAny(t, spec, Config{Policy: p}).JCT
		}
		if jct[CacheGGR] > jct[NoCache] {
			t.Errorf("%s: GGR %.1f slower than NoCache %.1f", name, jct[CacheGGR], jct[NoCache])
		}
		if jct[CacheGGR] > jct[CacheOriginal]*1.1 {
			t.Errorf("%s: GGR %.1f more than 10%% over Original %.1f", name, jct[CacheGGR], jct[CacheOriginal])
		}
	}
}

// TestSolverTimeNegligible pins the Sec. 6.5 claim at test scale: scheduling
// overhead is a vanishing fraction of serving time.
func TestSolverTimeNegligible(t *testing.T) {
	spec, _ := ByName("beer-filter")
	res := runAny(t, spec, Config{Policy: CacheGGR})
	if res.SolverSeconds > 2 {
		t.Errorf("solver took %.2fs on a tiny table", res.SolverSeconds)
	}
}
