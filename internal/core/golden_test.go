package core

import (
	"bufio"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/table"
	"repro/internal/tokenizer"
)

// updateGolden rewrites testdata/ggr_golden.txt from the solver in the
// working tree: `go test ./internal/core -run TestGGRGoldenSchedules -update`.
// The committed file was recorded on the commit before the solver moved to
// dictionary codes, so the test pins schedule identity across that change.
var updateGolden = flag.Bool("update", false, "rewrite the GGR golden file")

const goldenPath = "testdata/ggr_golden.txt"

type goldenCase struct {
	name string
	tbl  *table.Table
	opt  GGROptions
}

// goldenCases is the fixed case list: the five relational datasets at the
// benchmark's scale under the paper's options, and 200 random tables from
// the property tests' generators cycling through every solver option so the
// recursion, both fallback orderings, FD inference and early stopping are
// all pinned.
func goldenCases(t *testing.T) []goldenCase {
	var cases []goldenCase
	for _, name := range datagen.RelationalNames {
		for seed := int64(1); seed <= 3; seed++ {
			d, err := datagen.RelationalByName(name, datagen.Options{Scale: 0.1, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, goldenCase{
				name: fmt.Sprintf("%s/seed%d", name, seed),
				tbl:  d.Table,
				opt:  DefaultGGROptions(tokenizer.Count),
			})
		}
	}
	r := rand.New(rand.NewSource(20250927))
	for i := 0; i < 200; i++ {
		var tbl *table.Table
		if i%2 == 0 {
			tbl = randomTable(r, 1+r.Intn(40), 1+r.Intn(6), 1+r.Intn(5))
		} else {
			tbl = entityTable(r, 2+r.Intn(80), 1+r.Intn(10))
		}
		var opt GGROptions
		switch i % 5 {
		case 0:
			opt = GGROptions{LenOf: table.CharLen}
		case 1:
			opt = ExhaustiveGGROptions(tokenizer.Count)
		case 2:
			opt = GGROptions{LenOf: table.CharLen, UseFDs: true, MaxRowDepth: 2, MaxColDepth: 1}
		case 3:
			opt = GGROptions{LenOf: table.CharLen, UseFDs: true, MaxRowDepth: 3, MaxColDepth: 2, MinHitCount: 40,
				Stats: table.ComputeStats(tbl, table.CharLen)}
		case 4:
			opt = GGROptions{UseFDs: true, MinHitCount: 200}
		}
		cases = append(cases, goldenCase{name: fmt.Sprintf("random/%03d", i), tbl: tbl, opt: opt})
	}
	return cases
}

// scheduleHash fingerprints row order and per-row cell order.
func scheduleHash(s *Schedule) uint64 {
	h := fnv.New64a()
	for _, row := range s.Rows {
		fmt.Fprintf(h, "%d[", row.Source)
		for _, c := range row.Cells {
			fmt.Fprintf(h, "%d:%s=%d:%s;", len(c.Field), c.Field, len(c.Value), c.Value)
		}
		h.Write([]byte{']'})
	}
	return h.Sum64()
}

func TestGGRGoldenSchedules(t *testing.T) {
	cases := goldenCases(t)
	lines := make([]string, len(cases))
	for i, c := range cases {
		res := GGR(c.tbl, c.opt)
		if err := Verify(c.tbl, res.Schedule); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		lines[i] = fmt.Sprintf("%s %016x %d %d", c.name, scheduleHash(res.Schedule), res.PHC, res.Estimate)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n := 0
	for ; sc.Scan(); n++ {
		if n >= len(lines) {
			t.Fatalf("golden file has more than %d cases", len(lines))
		}
		if sc.Text() != lines[n] {
			t.Errorf("schedule drifted from the recorded solver\n got: %s\nwant: %s", lines[n], sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(lines) {
		t.Fatalf("golden file has %d cases, test generates %d", n, len(lines))
	}
}
