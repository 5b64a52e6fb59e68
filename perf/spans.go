package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by a benchmark-owned decorator at a
// seam the program exposes. Times are nanoseconds since the recorder's
// epoch; Parent is the id of the span that caused this one (0 = a root) and
// Op the operation (statement) it belongs to, -1 when the work is detached
// from any one statement, as a coalesced engine run is.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. Every method is a
// no-op on a nil recorder, so seams shared with the untraced run cost
// nothing there.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span // guarded by mu; ids are index+1
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span now and returns its id (0 on a nil recorder).
func (r *recorder) begin(name string, parent, op int64) int64 {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	r.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (r *recorder) end(id int64) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records an interval measured elsewhere (the program's own trace
// spans arrive after the fact, inside a response).
func (r *recorder) add(name string, parent, op int64, start time.Time, d time.Duration) int64 {
	if r == nil {
		return 0
	}
	s := int64(start.Sub(r.epoch))
	r.mu.Lock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: s, End: s + int64(d)})
	r.mu.Unlock()
	return id
}

// snapshot copies the closed spans recorded so far; spans still open (a
// hedge loser canceled mid-flight, say) are dropped rather than reported
// with a negative duration.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start && s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// spanRef is what rides a context (and the X-Perf-* headers) between
// decorators: the enclosing span and the operation it belongs to.
type spanRef struct {
	span int64
	op   int64
}

type spanRefKey struct{}

func withSpanRef(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanRefKey{}, ref)
}

// spanRefFrom recovers the enclosing span; detached work (no value on the
// context) reports parent 0 and op -1.
func spanRefFrom(ctx context.Context) spanRef {
	if ref, ok := ctx.Value(spanRefKey{}).(spanRef); ok {
		return ref
	}
	return spanRef{span: 0, op: -1}
}

// selfTimes maps each span id to its self time: its duration minus the
// union of its children's intervals, each clipped to the parent's own
// interval — overlapping children (a fan-out) are counted once, and a child
// that outlives its parent only subtracts the part it overlaps.
func selfTimes(spans []span) map[int64]int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - unionWithin(kids[s.ID], s.Start, s.End)
	}
	return self
}

// unionWithin is the total length of the union of the intervals, clipped to
// [lo, hi].
func unionWithin(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	clipped := make([][2]int64, 0, len(iv))
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curEnd int64
	curEnd = lo
	for _, x := range clipped {
		if x[1] <= curEnd {
			continue
		}
		total += x[1] - max(x[0], curEnd)
		curEnd = x[1]
	}
	return total
}

// spanStats rolls spans up by name: durations and self times in
// milliseconds, ready for summarize.
type spanStats struct {
	durMs  map[string][]float64
	selfMs map[string][]float64
}

func rollupSpans(spans []span) spanStats {
	st := spanStats{durMs: map[string][]float64{}, selfMs: map[string][]float64{}}
	self := selfTimes(spans)
	for _, s := range spans {
		st.durMs[s.Name] = append(st.durMs[s.Name], float64(s.dur())/1e6)
		st.selfMs[s.Name] = append(st.selfMs[s.Name], float64(self[s.ID])/1e6)
	}
	return st
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Epoch    string `json:"epoch"`
	Spans    []span `json:"spans"`
}

// writeTrace writes the traced run's spans to <dir>/<workload>.trace.json.
func writeTrace(dir, workload string, seed int64, r *recorder, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := dir + "/" + workload + ".trace.json"
	body, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Epoch: r.epoch.Format(time.RFC3339Nano), Spans: spans})
	if err != nil {
		return "", fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, body, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
