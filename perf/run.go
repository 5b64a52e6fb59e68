package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	llmruntime "repro/internal/runtime"
)

// budget bounds a timed phase. With Ops > 0 the phase serves exactly that
// many ops, so every virtual-clock counter repeats bit for bit for a seed;
// otherwise it runs for Seconds of wall time and counters are per op.
type budget struct {
	Seconds float64
	Ops     int64
}

// expired reports whether the phase that started at t0 and has begun n ops
// may not begin another.
func (b budget) expired(t0 time.Time, n int64) bool {
	if b.Ops > 0 {
		return n >= b.Ops
	}
	return time.Since(t0).Seconds() >= b.Seconds
}

// virtual is the simulated-clock side of a timed phase: what the serving
// simulator charged, each engine run counted once.
type virtual struct {
	JCT           float64 // simulated serving seconds
	PromptTokens  int64
	MatchedTokens int64
	LLMCalls      int64 // rows that reached an engine
}

// virtualOf reads the virtual counters out of a runtime metrics snapshot.
func virtualOf(m llmruntime.Metrics) virtual {
	return virtual{JCT: m.TotalJCT, PromptTokens: m.PromptTokens, MatchedTokens: m.MatchedTokens, LLMCalls: m.LLMCalls}
}

func (v virtual) sub(o virtual) virtual {
	return virtual{JCT: v.JCT - o.JCT, PromptTokens: v.PromptTokens - o.PromptTokens,
		MatchedTokens: v.MatchedTokens - o.MatchedTokens, LLMCalls: v.LLMCalls - o.LLMCalls}
}

// phase counts one phase's operations; a failed or refused op is counted,
// never dropped.
type phase struct {
	Attempted int64   `json:"attempted"`
	OK        int64   `json:"ok"`
	Failed    int64   `json:"failed"`
	WallS     float64 `json:"wallSeconds"`
}

// drive is what a session's timed phase measured.
type drive struct {
	m     meter
	latMs []float64 // wall latency of each successful op
	count phase
	errs  []string // the first few failures, verbatim
	virt  virtual
	// jctOriginal is Σ JCT under cache-original, batch-analytics only.
	jctOriginal float64
}

// fail records one failed op.
func (d *drive) fail(err error) {
	d.count.Failed++
	if len(d.errs) < 5 {
		d.errs = append(d.errs, err.Error())
	}
}

// session is one booted instance of a workload: inputs generated, topology
// up, caches warm.
type session interface {
	// drive runs the timed phase.
	drive(ctx context.Context, b budget) *drive
	// check runs the workload's correctness checks over what drive served
	// and returns how many it ran plus every violation found.
	check(ctx context.Context, d *drive) (checks int64, violations []string)
	// layers reports the per-layer metrics of a traced run: roll-ups of
	// spans, counter deltas, and the direct-call replays.
	layers(ctx context.Context, d *drive, spans []span) (map[string]float64, error)
	// opCounts describes the input and phase sizes for the result file's
	// provenance; warmup counts the ops the last set-up ran before timing.
	opCounts() map[string]int64
	warmup() phase
	close(ctx context.Context)
}

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// setup generates the inputs from seed, boots the topology and warms it
	// up. rec is nil in the untraced run.
	setup func(ctx context.Context, seed int64, rec *recorder) (session, error)
}

// setupReps is how many times a run sets the workload up; the median is
// reported as setup_s and the last instance is the one measured.
const setupReps = 3

// clients is the closed-loop client count of the served workloads:
// dashboards, BI tools and analyst CLIs wait for their reply, so the loop is
// closed, and two clients keep both cores of the reference box busy without
// building a queue.
func clients() int { return min(2, runtime.NumCPU()) }

// outcome is everything one run of one workload produced.
type outcome struct {
	workload   string
	traced     bool
	setupS     []float64
	d          *drive
	checks     int64
	violations []string
	checkWallS float64
	peakRSS    float64
	layers     map[string]float64
	spans      []span
	rec        *recorder
	opCounts   map[string]int64
	warm       phase
	goroutines int // after teardown
}

// runWorkload sets w up reps times, drives the last instance under b, checks
// it, and — traced — collects the per-layer metrics.
func runWorkload(ctx context.Context, w workload, seed int64, b budget, traced bool, reps int) (*outcome, error) {
	out := &outcome{workload: w.name, traced: traced}
	baseline := runtime.NumGoroutine()
	var rec *recorder
	var s session
	for i := 0; i < reps; i++ {
		if s != nil {
			s.close(ctx)
		}
		if traced {
			rec = newRecorder() // spans of a torn-down instance are not the run's
		}
		t0 := time.Now()
		var err error
		if s, err = w.setup(ctx, seed, rec); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
	}
	closed := false
	closeOnce := func() {
		if !closed {
			closed = true
			s.close(ctx)
		}
	}
	defer closeOnce()

	out.d = s.drive(ctx, b)
	out.peakRSS = peakRSSMiB()
	out.opCounts, out.warm = s.opCounts(), s.warmup()
	out.warm.WallS = out.setupS[len(out.setupS)-1]
	if traced {
		out.rec = rec
		out.spans = reparent(rec.snapshot()) // before the checks and replays add theirs
	}

	t0 := time.Now()
	out.checks, out.violations = s.check(ctx, out.d)
	out.checkWallS = time.Since(t0).Seconds()

	if traced {
		var err error
		if out.layers, err = s.layers(ctx, out.d, out.spans); err != nil {
			return nil, fmt.Errorf("%s: per-layer replay: %w", w.name, err)
		}
	}
	closeOnce()
	// Goroutines left once the topology is down: back at the process's
	// baseline unless something leaked. Connection goroutines take a moment
	// to notice their sockets closed.
	for wait := 0; runtime.NumGoroutine() > baseline && wait < 50; wait++ {
		time.Sleep(10 * time.Millisecond)
	}
	out.goroutines = runtime.NumGoroutine()
	if traced {
		out.layers["proc.goroutines_end"] = float64(out.goroutines)
	}
	return out, nil
}

// reparent hangs each imported program trace (its root arrives parented on
// the client's op span) under the server.handle span of the same op, where
// there is one: the statement ran inside that handler.
func reparent(spans []span) []span {
	handle := map[int64]int64{}
	for _, s := range spans {
		if s.Name == "server.handle" {
			handle[s.Op] = s.ID
		}
	}
	for i, s := range spans {
		if s.Name == "prog.statement" {
			if h, ok := handle[s.Op]; ok {
				spans[i].Parent = h
			}
		}
	}
	return spans
}
