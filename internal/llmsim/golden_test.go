package llmsim_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/llmsim"
	"repro/internal/query"
	"repro/internal/tokenizer"
)

// updateGolden rewrites testdata/engine_golden.txt from the engine in the
// working tree: `go test ./internal/llmsim -run TestEngineGolden -update`.
// The committed file was recorded on the commit before the KV-cache
// bookkeeping moved to per-request hash chains, a typed eviction heap and
// recycled trie nodes, so the test pins the simulator's virtual results —
// the paper's JCT and hit-rate numbers — across that change and any later
// one that is meant to be cost-only.
var updateGolden = flag.Bool("update", false, "rewrite the engine golden file")

const goldenPath = "testdata/engine_golden.txt"

// goldenScale keeps each dataset at a few hundred rows.
const goldenScale = 0.02

// TestEngineGolden runs the five relational datasets' filter queries under
// the paper's method (GGR schedule, FIFO), its baseline (original order,
// FIFO) and the online scheduler (original order, CacheAware), each on a KV
// pool of four requests' worth of blocks under a 32-sequence batch — tight
// enough that admission is rejected and blocks are evicted in every case.
func TestEngineGolden(t *testing.T) {
	var lines []string
	for _, name := range datagen.RelationalNames {
		d, err := datagen.RelationalByName(name, datagen.Options{Scale: goldenScale, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		spec, err := query.ByName(strings.ToLower(name) + "-filter")
		if err != nil {
			t.Fatal(err)
		}
		ggr := core.GGR(d.Table, core.DefaultGGROptions(tokenizer.Count)).Schedule
		for _, c := range []struct {
			policy string
			sched  *core.Schedule
			mode   llmsim.SchedPolicy
		}{
			{"cache-ggr", ggr, llmsim.FIFO},
			{"cache-original", core.Original(d.Table), llmsim.FIFO},
			{"cache-aware", core.Original(d.Table), llmsim.CacheAware},
		} {
			prompts := query.PromptTokens(spec.UserPrompt, d.Table, c.sched, nil)
			reqs := make([]*llmsim.Request, len(prompts))
			var maxBlocks int64
			for i, row := range c.sched.Rows {
				reqs[i] = &llmsim.Request{ID: row.Source, Prompt: prompts[i], OutTokens: spec.OutTokensFor(row.Source)}
				maxBlocks = max(maxBlocks, int64(len(prompts[i])+reqs[i].OutTokens)/16+2)
			}
			m, err := llmsim.New(llmsim.Config{
				Cost:             llmsim.CostModel{Model: llmsim.Llama3_8B, Cluster: llmsim.SingleL4},
				CacheEnabled:     true,
				CapacityOverride: 4 * maxBlocks,
				Sched:            c.mode,
			}).Run(reqs)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, c.policy, err)
			}
			if m.Cache.Rejections == 0 || m.Cache.EvictedBlocks == 0 {
				t.Fatalf("%s/%s: pool not tight (%d rejections, %d evictions); the golden must cover the rejected path",
					name, c.policy, m.Cache.Rejections, m.Cache.EvictedBlocks)
			}
			h := fnv.New64a()
			for _, r := range reqs {
				fmt.Fprintf(h, "%d:%d:%016x;", r.ID, r.Matched, math.Float64bits(r.EndTime))
			}
			lines = append(lines, fmt.Sprintf("%s/%s reqs=%d jct=%016x steps=%d matched=%d prefilled=%d inserted=%d evicted=%d rejections=%d requests=%016x",
				name, c.policy, len(reqs), math.Float64bits(m.JCT), m.Steps, m.MatchedTokens, m.PrefilledTokens,
				m.Cache.InsertedBlocks, m.Cache.EvictedBlocks, m.Cache.Rejections, h.Sum64()))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("engine results drifted from the recorded simulator\n got:\n%swant:\n%s", got, want)
	}
}
