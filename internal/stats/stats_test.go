package stats

import (
	"math/rand"
	"slices"
	"testing"
)

// TestWindowDifferential drives Window and a naive model (a slice, newest
// first, truncated to capacity) with the same random Add/Reset stream and
// compares length and full newest-first order after every operation.
func TestWindowDifferential(t *testing.T) {
	for _, capacity := range []int{1, 2, 128} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			w := NewWindow[int](capacity)
			var model []int
			for op := 0; op < 10_000; op++ {
				if rng.Intn(500) == 0 {
					w.Reset()
					model = model[:0]
				} else {
					v := rng.Int()
					w.Add(v)
					model = slices.Insert(model, 0, v)
					model = model[:min(len(model), capacity)]
				}
				if w.Len() != len(model) {
					t.Fatalf("cap %d seed %d op %d: Len = %d, model %d", capacity, seed, op, w.Len(), len(model))
				}
				if got := slices.Collect(w.All()); !slices.Equal(got, model) {
					t.Fatalf("cap %d seed %d op %d: order diverged\n got %v\nwant %v", capacity, seed, op, got, model)
				}
			}
		}
	}
}

// TestWindowAllStopsEarly: breaking out of the iteration is honoured.
func TestWindowAllStopsEarly(t *testing.T) {
	w := NewWindow[int](4)
	for i := 1; i <= 6; i++ {
		w.Add(i)
	}
	var got []int
	for v := range w.All() {
		if got = append(got, v); len(got) == 2 {
			break
		}
	}
	if !slices.Equal(got, []int{6, 5}) {
		t.Fatalf("first two newest-first = %v, want [6 5]", got)
	}
}

// TestWindowAddAllocatesNothingOnceFull pins the hot-path contract of the
// rings Window replaced: growth is append's, and a full window never
// allocates — nor does reusing one after Reset.
func TestWindowAddAllocatesNothingOnceFull(t *testing.T) {
	w := NewWindow[float64](128)
	for i := 0; i < 128; i++ {
		w.Add(float64(i))
	}
	if n := testing.AllocsPerRun(1000, func() { w.Add(1) }); n != 0 {
		t.Errorf("Add on a full window: %v allocs, want 0", n)
	}
	w.Reset()
	if n := testing.AllocsPerRun(100, func() { w.Add(1) }); n != 0 {
		t.Errorf("Add after Reset: %v allocs, want 0", n)
	}
}

// TestQuantile pins nearest-rank semantics: the cases obs.percentile was
// held to, and — at the paper's 10 000 bootstrap reps — the exact indices
// bootstrap.percentile's int(p·(n−1)) used to read.
func TestQuantile(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		name   string
		sorted []float64
		p      float64
		want   float64
	}{
		{"p99 of 1..100", seq(100), 0.99, 99},
		{"p100 of 1..100", seq(100), 1, 100},
		{"p50 of 1..100", seq(100), 0.5, 50},
		{"singleton", []float64{7}, 0.5, 7},
		{"empty", nil, 0.99, 0},
		{"p tiny clamps to the minimum", seq(10), 1e-9, 1},
		{"bootstrap P5 at 10k reps", seq(10_000), 0.05, 500},        // index 499 = int(0.05·9999)
		{"bootstrap median at 10k reps", seq(10_000), 0.5, 5000},    // index 4999
		{"bootstrap P95 at 10k reps", seq(10_000), 0.95, 9500},      // index 9499
		{"p99 of a 128-window is not its max", seq(128), 0.99, 127}, // what the router does NOT use
	} {
		if got := Quantile(tc.sorted, tc.p); got != tc.want {
			t.Errorf("%s: Quantile(p=%g) = %g, want %g", tc.name, tc.p, got, tc.want)
		}
	}
}
