// Package bootstrap implements the statistical bootstrapping used by the
// paper's accuracy study (Sec. 6.4): resampling rows with replacement to
// obtain a distribution of exact-match accuracy over 10,000 runs.
package bootstrap

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/stats"
)

// Result summarizes a bootstrap distribution.
type Result struct {
	Reps   int
	Mean   float64
	Median float64
	P5     float64
	P95    float64
}

// Mean of values resampled with replacement, repeated reps times.
// Deterministic for a given seed.
func Means(values []float64, reps int, seed int64) (Result, error) {
	if len(values) == 0 {
		return Result{}, fmt.Errorf("bootstrap: no values")
	}
	if reps <= 0 {
		return Result{}, fmt.Errorf("bootstrap: reps must be positive, got %d", reps)
	}
	r := rand.New(rand.NewSource(seed))
	n := len(values)
	means := make([]float64, reps)
	for rep := 0; rep < reps; rep++ {
		var sum float64
		for i := 0; i < n; i++ {
			sum += values[r.Intn(n)]
		}
		means[rep] = sum / float64(n)
	}
	sort.Float64s(means)
	var mean float64
	for _, s := range means {
		mean += s
	}
	mean /= float64(reps)
	return Result{
		Reps:   reps,
		Mean:   mean,
		Median: stats.Quantile(means, 0.50),
		P5:     stats.Quantile(means, 0.05),
		P95:    stats.Quantile(means, 0.95),
	}, nil
}

// Accuracy bootstraps the exact-match accuracy of a correctness vector.
func Accuracy(correct []bool, reps int, seed int64) (Result, error) {
	vals := make([]float64, len(correct))
	for i, c := range correct {
		if c {
			vals[i] = 1
		}
	}
	return Means(vals, reps, seed)
}
