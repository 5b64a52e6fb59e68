package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{32, 0, false},   // p90 would leave 3 samples beyond it
		{99, 0, false},   // 9.9 beyond p90
		{100, 90, true},  // exactly 10 beyond p90
		{199, 90, true},  // 9.95 beyond p95
		{200, 95, true},  // exactly 10 beyond p95
		{999, 95, true},  // 9.99 beyond p99
		{1000, 99, true}, // exactly 10 beyond p99
		{4000, 99, true}, // 4 beyond p99.9
		{10000, 99.9, true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestSummarizeAndReportPrintSampleCount(t *testing.T) {
	ms := make([]float64, 1000)
	for i := range ms {
		ms[i] = float64(i + 1)
	}
	s := summarize(ms)
	if s.N != 1000 || s.P50 != 500.5 || s.TailP != 99 || s.Tail != 990 {
		t.Fatalf("summarize = %+v", s)
	}
	var buf bytes.Buffer
	printRun(&buf, runRecord{Workload: "w", Latency: s, Phases: map[string]phase{}}, nil)
	if out := buf.String(); !strings.Contains(out, "median 500.500 ms, p99 990.000 ms (n=1000)") {
		t.Errorf("report does not state median, tail percentile and n:\n%s", out)
	}

	thin := summarize(ms[:32])
	buf.Reset()
	printRun(&buf, runRecord{Workload: "w", Latency: thin, Phases: map[string]phase{}}, nil)
	if out := buf.String(); !strings.Contains(out, "median 16.500 ms (n=32)") {
		t.Errorf("a 32-sample report must quote no tail percentile:\n%s", out)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quantile(s, 0.9); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9 (nearest rank)", got)
	}
	if got := quantile(s, 1); got != 10 {
		t.Errorf("p100 = %v", got)
	}
}

// TestQuartilesMatchPython pins the spread computation to what the
// benchmark's driver uses: statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in     []float64
		q1, q3 float64
	}{
		// >>> statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
		// [2.75, 5.5, 8.25]
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		// >>> statistics.quantiles([10, 4, 7, 1, 12], n=4)
		// [2.5, 7.0, 11.0]
		{[]float64{10, 4, 7, 1, 12}, 2.5, 11},
		// >>> statistics.quantiles([3, 9], n=4)
		// [1.5, 6.0, 10.5]
		{[]float64{3, 9}, 1.5, 10.5},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}
