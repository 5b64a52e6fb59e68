package llmsim

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestTraceEventsComplete(t *testing.T) {
	var sb strings.Builder
	cfg := baseConfig(true)
	cfg.Trace = &sb
	reqs := mkReqs(8, 100, 2, true)
	m, err := New(cfg).Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	events, err := ReadTrace(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, ev := range events {
		counts[ev.Kind]++
	}
	if counts["admit"] != 8 || counts["finish"] != 8 {
		t.Errorf("admit=%d finish=%d, want 8/8", counts["admit"], counts["finish"])
	}
	if int64(counts["step"]) != m.Steps {
		t.Errorf("step events %d != metric steps %d", counts["step"], m.Steps)
	}
}

func TestTraceClockMonotone(t *testing.T) {
	var sb strings.Builder
	cfg := baseConfig(true)
	cfg.Trace = &sb
	if _, err := New(cfg).Run(mkReqs(12, 150, 3, false)); err != nil {
		t.Fatal(err)
	}
	events, err := ReadTrace(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	last := -1.0
	for i, ev := range events {
		if ev.Time < last {
			t.Fatalf("event %d: clock went backwards (%f < %f)", i, ev.Time, last)
		}
		last = ev.Time
	}
}

func TestTraceFinishMatchesRequests(t *testing.T) {
	var sb strings.Builder
	cfg := baseConfig(true)
	cfg.Trace = &sb
	reqs := mkReqs(5, 80, 2, false)
	if _, err := New(cfg).Run(reqs); err != nil {
		t.Fatal(err)
	}
	events, _ := ReadTrace(strings.NewReader(sb.String()))
	byReq := map[int]TraceEvent{}
	for _, ev := range events {
		if ev.Kind == "finish" {
			byReq[ev.Req] = ev
		}
	}
	for _, r := range reqs {
		ev, ok := byReq[r.ID]
		if !ok {
			t.Fatalf("request %d has no finish event", r.ID)
		}
		if got, want := ev.Latency, r.EndTime-r.StartTime; got != want {
			t.Errorf("request %d: trace latency %f != %f", r.ID, got, want)
		}
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	// nil trace writer must be safe and cost nothing.
	if _, err := New(baseConfig(true)).Run(mkReqs(3, 50, 1, false)); err != nil {
		t.Fatal(err)
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(strings.NewReader("{not json")); err == nil {
		t.Error("garbage trace accepted")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) {
	return 0, strings.NewReader("").UnreadByte() // any non-nil error
}

func TestTraceWriteFailureSurfaces(t *testing.T) {
	cfg := baseConfig(true)
	cfg.Trace = failWriter{}
	if _, err := New(cfg).Run(mkReqs(2, 50, 1, false)); err == nil {
		t.Error("trace write failure swallowed")
	}
}

// ReadTrace parses a JSONL trace back into events.
func ReadTrace(r io.Reader) ([]TraceEvent, error) {
	dec := json.NewDecoder(r)
	var out []TraceEvent
	for dec.More() {
		var ev TraceEvent
		if err := dec.Decode(&ev); err != nil {
			return nil, fmt.Errorf("llmsim: trace read: %w", err)
		}
		out = append(out, ev)
	}
	return out, nil
}
