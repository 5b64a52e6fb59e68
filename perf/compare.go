package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads: each
// end-to-end metric's direction and the share of the old median by which it
// may worsen before the change counts as a regression.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBenchmark(path string) (benchmarkFile, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var bf benchmarkFile
	var lastErr error
	for _, p := range candidates {
		body, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		if err := json.Unmarshal(body, &bf); err != nil {
			return bf, fmt.Errorf("decode %s: %w", p, err)
		}
		return bf, nil
	}
	return bf, fmt.Errorf("read BENCHMARK.json: %w", lastErr)
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method), so
// the spreads printed here are the ones the benchmark's driver computes.
func quartiles(values []float64) (q1, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	if n < 2 {
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spreadShare is the distance between the quartiles as a share of the
// median; 0 when a side has a single run and so no spread to show.
func spreadShare(values []float64) float64 {
	q1, q3 := quartiles(values)
	m := median(values)
	if m < 0 {
		m = -m
	}
	return ratio(q3-q1, m)
}

type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// judge classifies one metric on one workload. worse is how far the new
// median is on the wrong side of the old one, as a share of the old median.
// A metric whose run-to-run spread is wider than its bound cannot be called
// unchanged: it is unresolved unless every new run reads better (or, past
// the bound, every new run worse) than every old run. With exact set — a
// virtual counter on same-seed, same-op-count runs — any drift at all is a
// change.
func judge(old, new []float64, better string, bound float64, exact bool) (v verdict, worse, spread float64) {
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	mo, mn := median(old), median(new)
	base := mo
	if base < 0 {
		base = -base
	}
	worse = ratio(sign*(mn-mo), base)
	spread = max(spreadShare(old), spreadShare(new))
	if exact {
		switch {
		case worse > 1e-12:
			return regressed, worse, spread
		case worse < -1e-12:
			return improved, worse, spread
		}
		return unchanged, worse, spread
	}
	if spread > bound {
		allBetter, allWorse := true, true
		for _, o := range old {
			for _, n := range new {
				if sign*(n-o) >= 0 {
					allBetter = false
				}
				if sign*(n-o) <= 0 {
					allWorse = false
				}
			}
		}
		switch {
		case allBetter:
			return improved, worse, spread
		case allWorse && worse > bound:
			return regressed, worse, spread
		}
		return unresolved, worse, spread
	}
	switch {
	case worse > bound:
		return regressed, worse, spread
	case worse < -bound:
		return improved, worse, spread
	}
	return unchanged, worse, spread
}

// side is one side of a comparison: every untraced run of its result files.
type side struct {
	values map[string]map[string][]float64 // workload → metric → one value per run
	failed map[string][]float64            // workload → failed ratio per run
	prov   []provenance
}

func loadSide(list string) (side, error) {
	s := side{values: map[string]map[string][]float64{}, failed: map[string][]float64{}}
	for _, path := range strings.Split(list, ",") {
		rf, err := readResult(path)
		if err != nil {
			return s, err
		}
		s.prov = append(s.prov, rf.Provenance)
		for _, r := range rf.Runs {
			if r.Traced {
				continue // end-to-end metrics always come from the untraced run
			}
			if s.values[r.Workload] == nil {
				s.values[r.Workload] = map[string][]float64{}
			}
			for name, mv := range r.Metrics {
				s.values[r.Workload][name] = append(s.values[r.Workload][name], mv.Value)
			}
			s.failed[r.Workload] = append(s.failed[r.Workload], r.Totals["failedRatio"])
		}
	}
	return s, nil
}

// sameInputs reports whether every run on both sides used one seed and one
// fixed op count — the condition under which virtual counters are exact.
func sameInputs(a, b side) bool {
	all := append(append([]provenance(nil), a.prov...), b.prov...)
	for _, p := range all {
		if p.Ops == 0 || p.Ops != all[0].Ops || p.Seed != all[0].Seed {
			return false
		}
	}
	return len(all) > 0
}

// runCompare is the repo's benchdiff: one row per workload × end-to-end
// metric, judged against BENCHMARK.json's bounds. It fails on any
// regression and on a higher failed ratio.
func runCompare(w io.Writer, benchPath string, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare takes two arguments: OLD[,OLD...] NEW[,NEW...]")
	}
	bf, err := readBenchmark(benchPath)
	if err != nil {
		return err
	}
	old, err := loadSide(args[0])
	if err != nil {
		return err
	}
	cur, err := loadSide(args[1])
	if err != nil {
		return err
	}
	exactOK := sameInputs(old, cur)
	exact := map[string]bool{}
	for _, d := range endToEndDefs {
		exact[d.Name] = d.Exact && exactOK
	}
	for _, p := range append(old.prov, cur.prov...) {
		fmt.Fprintf(w, "# seed %d commit %s %s GOMAXPROCS %d nproc %d clients %d seconds %g ops %d\n",
			p.Seed, p.Commit, p.GoVersion, p.GOMAXPROCS, p.NProc, p.Clients, p.Seconds, p.Ops)
	}
	fmt.Fprintf(w, "%-18s %-24s %14s %14s %9s %7s %8s  %s\n", "workload", "metric", "old median", "new median", "worse %", "bound %", "spread %", "verdict")
	var failures []string
	for _, wl := range workloads {
		ov, nv := old.values[wl.name], cur.values[wl.name]
		if ov == nil || nv == nil {
			continue
		}
		for _, m := range bf.EndToEnd {
			if len(ov[m.Name]) == 0 || len(nv[m.Name]) == 0 {
				continue
			}
			v, worse, spread := judge(ov[m.Name], nv[m.Name], m.Better, m.Bound, exact[m.Name])
			fmt.Fprintf(w, "%-18s %-24s %14.4f %14.4f %+9.2f %7.2f %8.2f  %s\n", wl.name, m.Name,
				median(ov[m.Name]), median(nv[m.Name]), 100*worse, 100*m.Bound, 100*spread, v)
			if v == regressed {
				failures = append(failures, fmt.Sprintf("%s on %s regressed by %.2f%% (bound %.2f%%)", m.Name, wl.name, 100*worse, 100*m.Bound))
			}
		}
		if fo, fn := median(old.failed[wl.name]), median(cur.failed[wl.name]); fn > fo {
			fmt.Fprintf(w, "%-18s %-24s %14.4f %14.4f %9s %7s %8s  %s\n", wl.name, "failed_ratio", fo, fn, "", "0.00", "", regressed)
			failures = append(failures, fmt.Sprintf("failed_ratio on %s rose from %g to %g", wl.name, fo, fn))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d regression(s): %s", len(failures), strings.Join(failures, "; "))
	}
	return nil
}
