package llmsim

import (
	"encoding/json"
	"fmt"
	"io"
)

// TraceEvent is one line of the engine's JSONL event log. Events carry the
// virtual clock, so a trace replays the run exactly; the trace is how we
// debugged the cache-pressure effects the paper describes qualitatively.
type TraceEvent struct {
	// Time is the virtual clock in seconds.
	Time float64 `json:"t"`
	// Kind is "admit", "step", or "finish".
	Kind string `json:"kind"`
	// Req is the request ID for admit/finish events.
	Req int `json:"req,omitempty"`
	// Matched reports cached prompt tokens at admission.
	Matched int `json:"matched,omitempty"`
	// Prompt is the prompt length at admission.
	Prompt int `json:"prompt,omitempty"`
	// Running / PrefillTokens / DecodeSeqs describe a step.
	Running       int `json:"running,omitempty"`
	PrefillTokens int `json:"prefill,omitempty"`
	DecodeSeqs    int `json:"decode,omitempty"`
	// UsedBlocks is the KV pool occupancy after the event.
	UsedBlocks int64 `json:"blocks,omitempty"`
	// Latency is the request latency for finish events.
	Latency float64 `json:"latency,omitempty"`
}

// tracer serializes events to a writer; nil tracer drops them.
type tracer struct {
	w   io.Writer
	enc *json.Encoder
	err error
}

func newTracer(w io.Writer) *tracer {
	if w == nil {
		return nil
	}
	return &tracer{w: w, enc: json.NewEncoder(w)}
}

func (t *tracer) emit(ev TraceEvent) {
	if t == nil || t.err != nil {
		return
	}
	if err := t.enc.Encode(ev); err != nil {
		t.err = fmt.Errorf("llmsim: trace write: %w", err)
	}
}

// Err reports the first trace-write failure, if any.
func (t *tracer) Err() error {
	if t == nil {
		return nil
	}
	return t.err
}
