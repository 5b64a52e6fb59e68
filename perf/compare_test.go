package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	tight := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		name     string
		old, new []float64
		better   string
		bound    float64
		exact    bool
		want     verdict
	}{
		{"within the band", tight, []float64{103, 104, 102, 103, 103}, "lower", 0.08, false, unchanged},
		{"past the band", tight, []float64{110, 111, 109, 110, 110}, "lower", 0.08, false, regressed},
		{"better past the band", tight, []float64{90, 91, 89, 90, 90}, "lower", 0.08, false, improved},
		{"higher is better, fell", tight, []float64{90, 91, 89, 90, 90}, "higher", 0.08, false, regressed},
		{"higher is better, rose", tight, []float64{110, 111, 109, 110, 110}, "higher", 0.08, false, improved},
		{"spread wider than the bound", []float64{80, 100, 120, 90, 110}, []float64{85, 105, 125, 95, 115}, "lower", 0.08, false, unresolved},
		{"wide spread, every new run better", []float64{100, 120, 140, 110, 130}, []float64{50, 60, 70, 55, 65}, "lower", 0.08, false, improved},
		{"wide spread, every new run worse", []float64{50, 60, 70, 55, 65}, []float64{100, 120, 140, 110, 130}, "lower", 0.08, false, regressed},
		{"exact counter drifted inside the band", []float64{62.98}, []float64{62.99}, "lower", 0.05, true, regressed},
		{"exact counter identical", []float64{62.98}, []float64{62.98}, "lower", 0.05, true, unchanged},
		{"single runs carry no spread", []float64{100}, []float64{104}, "lower", 0.08, false, unchanged},
	}
	for _, c := range cases {
		if got, _, _ := judge(c.old, c.new, c.better, c.bound, c.exact); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// resultWith builds a one-run result file around the given end-to-end
// values.
func resultWith(workload string, values map[string]float64, failedRatio float64) resultFile {
	r := runRecord{Workload: workload, Correct: true, Metrics: map[string]metricValue{},
		Totals: map[string]float64{"failedRatio": failedRatio}}
	for _, d := range endToEndDefs {
		r.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return resultFile{Provenance: provenance{Seed: 1, Seconds: 12}, Runs: []runRecord{r}}
}

func TestCompareSelfThenWorsened(t *testing.T) {
	dir := t.TempDir()
	base := map[string]float64{}
	for i, d := range endToEndDefs {
		base[d.Name] = float64(10 * (i + 1))
	}
	a := filepath.Join(dir, "a.json")
	if err := writeResult(a, resultWith("adhoc-cold", base, 0)); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runCompare(&out, "../BENCHMARK.json", []string{a, a}); err != nil {
		t.Fatalf("a result file against itself: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), string(regressed)) || strings.Count(out.String(), string(unchanged)) != len(endToEndDefs) {
		t.Errorf("self-comparison should be unchanged on every metric:\n%s", out.String())
	}

	worse := map[string]float64{}
	for k, v := range base {
		worse[k] = v
	}
	worse["cpu_ms_per_op"] *= 1.5
	b := filepath.Join(dir, "b.json")
	if err := writeResult(b, resultWith("adhoc-cold", worse, 0)); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err := runCompare(&out, "../BENCHMARK.json", []string{a, b})
	if err == nil {
		t.Fatalf("a 50%% worse cpu_ms_per_op passed:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "cpu_ms_per_op") || !strings.Contains(err.Error(), "adhoc-cold") {
		t.Errorf("error %q does not name the metric and the workload", err)
	}
	if strings.Count(out.String(), string(regressed)) != 1 {
		t.Errorf("exactly one row should regress:\n%s", out.String())
	}

	c := filepath.Join(dir, "c.json")
	if err := writeResult(c, resultWith("adhoc-cold", base, 0.01)); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := runCompare(&out, "../BENCHMARK.json", []string{a, c}); err == nil || !strings.Contains(err.Error(), "failed_ratio") {
		t.Errorf("a higher failed ratio must fail the comparison, got %v", err)
	}

	// Several files a side: medians are compared, so one outlier among three
	// new runs does not regress the metric.
	out.Reset()
	if err := runCompare(&out, "../BENCHMARK.json", []string{a + "," + a + "," + a, a + "," + b + "," + a}); err != nil {
		t.Errorf("median of three with one outlier: %v\n%s", err, out.String())
	}
}
