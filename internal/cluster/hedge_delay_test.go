package cluster

import (
	"context"
	"testing"
	"time"
)

// TestHedgeDelayIsWindowMaximum pins what "-hedge-after 0" means: the
// adaptive delay is the slowest of the last latencyWindow successful
// batches — not a percentile — so one outlier sets it until exactly
// latencyWindow newer observations have pushed it out.
func TestHedgeDelayIsWindowMaximum(t *testing.T) {
	rt, err := NewRouter(Config{Workers: []string{"127.0.0.1:1"}, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	observe := func(d time.Duration) {
		rt.latMu.Lock()
		rt.lats.Add(d)
		rt.latMu.Unlock()
	}
	delay := func() time.Duration {
		d, ok := rt.hedgeDelay(context.Background())
		if !ok {
			t.Fatal("adaptive hedging reported itself disabled")
		}
		return d
	}

	if got := delay(); got != defaultHedgeDelay {
		t.Fatalf("cold router delay = %v, want the default %v", got, defaultHedgeDelay)
	}
	const outlier, usual = 900 * time.Millisecond, 5 * time.Millisecond
	observe(outlier)
	for i := 1; i < latencyWindow; i++ {
		observe(usual)
		if got := delay(); got != outlier {
			t.Fatalf("after %d newer batches delay = %v, want the outlier %v (still in the window)", i, got, outlier)
		}
	}
	// A true p99 of these 128 samples would already be 5ms (rank 127).
	observe(usual) // the 129th observation evicts the outlier
	if got := delay(); got != usual {
		t.Fatalf("after %d newer batches delay = %v, want %v (outlier left the window)", latencyWindow, got, usual)
	}

	// A deadline the delay would outlive suppresses the hedge entirely.
	ctx, cancel := context.WithTimeout(context.Background(), usual/2)
	defer cancel()
	if _, ok := rt.hedgeDelay(ctx); ok {
		t.Error("hedge not suppressed under a deadline shorter than the delay")
	}
}
