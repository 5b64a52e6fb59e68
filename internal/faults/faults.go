// Package faults is the deterministic fault-injection layer the chaos
// conformance suite and `-faults` chaos runs drive the fleet with. Failure
// is an input here, not an accident: an Injector is parsed from a compact
// spec string, draws every probabilistic decision from one seeded generator
// (same spec + same seed + same event order = same faults), and is mounted
// at three seams —
//
//   - Backend (backend.go): a backend.Backend decorator injecting latency
//     spikes, transient errors, hangs, and permanent crashes per stage key,
//     for chaos on a local serving path;
//   - RoundTripper (http.go): an http.RoundTripper decorator on a cluster
//     router's client injecting connect errors, 5xx bursts, corrupt
//     response bodies, and per-worker crashes between router and workers;
//   - Middleware (http.go): an http.Handler decorator on a worker's mux
//     injecting the same wire faults server-side (`llmqserve -worker
//     -faults ...`), including connection aborts a router cannot tell from
//     a dead process.
//
// Spec grammar (documented for operators in docs/API.md):
//
//	spec  := entry { ";" entry }
//	entry := "seed=" INT | rule
//	rule  := kind { ":" param }
//	kind  := "latency" | "5xx" | "conn" | "corrupt" | "hang" | "crash"
//	param := "p=" FLOAT      probability per matching event (default 1)
//	       | "count=" INT    at most this many injections (default unlimited)
//	       | "after=" INT    skip the first N matching events (default 0)
//	       | "delay=" DUR    latency to add / hang cap (latency default 250ms)
//	       | "status=" INT   HTTP status for 5xx (default 503)
//	       | "stage=" SUBSTR match on the batch's stage key (backend seam)
//	       | "worker=" SUBSTR match on the target host (round-tripper seam)
//
// Example: "seed=42;latency:delay=200ms:p=0.3;5xx:count=3;crash:after=10".
// Rules are evaluated in spec order and at most one fault fires per event.
// "crash" latches: once its after-threshold passes, every subsequent
// matching event is crashed (p and count do not apply), which is what makes
// a crashed worker indistinguishable from a dead process.
package faults

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Kind names one injectable fault.
type Kind string

const (
	// Latency adds a delay before the event proceeds normally.
	Latency Kind = "latency"
	// Err5xx fails the event with a transient server error (HTTP seams
	// answer the configured status; the backend seam returns a transient
	// InjectedError).
	Err5xx Kind = "5xx"
	// Conn fails the event with a connect-level error: no response at all.
	Conn Kind = "conn"
	// Corrupt delivers a truncated/garbled response body instead of the
	// real one (HTTP seams only; the backend seam never fires it — there is
	// no wire to corrupt below the seam).
	Corrupt Kind = "corrupt"
	// Hang blocks the event until its context dies (or the rule's delay
	// cap elapses, after which it degrades to a connect error).
	Hang Kind = "hang"
	// Crash latches the target dead: every subsequent matching event fails
	// like a killed process (connection aborts on the wire, a permanent
	// error on the backend seam).
	Crash Kind = "crash"
)

// DefaultLatency is the latency rule's delay when the spec names none.
const DefaultLatency = 250 * time.Millisecond

// rule is one parsed spec entry plus its firing state.
type rule struct {
	kind   Kind
	p      float64       // probability per matching event (1 = always)
	count  int           // max injections, 0 = unlimited
	after  int           // matching events to skip before arming
	delay  time.Duration // latency amount / hang cap
	status int           // HTTP status for 5xx
	stage  string        // substring selector on the stage key
	worker string        // substring selector on the target host

	seen     int // matching events observed; the owning Injector's mu serializes access
	injected int // faults fired; the owning Injector's mu serializes access
}

// matches reports whether the rule applies to an event at the given seam
// coordinates. A stage/worker selector requires the seam to supply that
// coordinate, so one spec can direct rules at different seams.
func (r *rule) matches(stage, worker string) bool {
	if r.stage != "" && (stage == "" || !strings.Contains(stage, r.stage)) {
		return false
	}
	if r.worker != "" && (worker == "" || !strings.Contains(worker, r.worker)) {
		return false
	}
	return true
}

// Decision is one event's injected fault; the zero value means "no fault,
// proceed normally".
type Decision struct {
	Kind   Kind
	Delay  time.Duration // Latency amount or Hang cap (0 = hang forever)
	Status int           // Err5xx HTTP status
}

// Faulted reports whether a fault fired for the event.
func (d Decision) Faulted() bool { return d.Kind != "" }

// Injector evaluates a parsed fault spec against a stream of events. All
// randomness comes from one seeded generator under the mutex, so a given
// spec replays identically for an identical event sequence — the property
// the chaos conformance suite's fault-free diffing depends on.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand // guarded by mu
	rules []*rule    // firing state guarded by mu
	stats Stats      // guarded by mu
}

// Parse builds an Injector from a spec string (grammar in the package
// comment). An empty spec yields an injector that never fires — a valid
// passthrough for wiring tests.
func Parse(spec string) (*Injector, error) {
	var rules []*rule
	seed := int64(1)
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(entry, "seed="); ok {
			v, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q: %w", rest, err)
			}
			seed = v
			continue
		}
		r, err := parseRule(entry)
		if err != nil {
			return nil, err
		}
		rules = append(rules, r)
	}
	return &Injector{rules: rules, rng: rand.New(rand.NewSource(seed))}, nil
}

// parseRule parses one "kind:param:param" entry.
func parseRule(entry string) (*rule, error) {
	parts := strings.Split(entry, ":")
	r := &rule{p: 1, status: 503}
	switch k := Kind(parts[0]); k {
	case Latency, Err5xx, Conn, Corrupt, Hang, Crash:
		r.kind = k
	default:
		return nil, fmt.Errorf("faults: unknown fault kind %q (want latency, 5xx, conn, corrupt, hang, or crash)", parts[0])
	}
	if r.kind == Latency {
		r.delay = DefaultLatency
	}
	for _, param := range parts[1:] {
		key, val, ok := strings.Cut(param, "=")
		if !ok {
			return nil, fmt.Errorf("faults: rule %q: malformed param %q (want key=value)", entry, param)
		}
		var err error
		switch key {
		case "p":
			r.p, err = strconv.ParseFloat(val, 64)
			if err == nil && (r.p < 0 || r.p > 1) {
				err = fmt.Errorf("p must be in [0,1], got %v", r.p)
			}
		case "count":
			r.count, err = strconv.Atoi(val)
		case "after":
			r.after, err = strconv.Atoi(val)
		case "delay":
			r.delay, err = time.ParseDuration(val)
		case "status":
			r.status, err = strconv.Atoi(val)
			if err == nil && (r.status < 500 || r.status > 599) {
				err = fmt.Errorf("status must be 5xx, got %d", r.status)
			}
		case "stage":
			r.stage = val
		case "worker":
			r.worker = val
		default:
			err = fmt.Errorf("unknown param %q", key)
		}
		if err != nil {
			return nil, fmt.Errorf("faults: rule %q: %v", entry, err) //llmqlint:nowrap -- flattened: the param context is the message
		}
	}
	return r, nil
}

// allowed filters the kinds a seam can express; decide never fires others
// there (a corrupt rule simply waits for a wire seam, for example).
type allowed map[Kind]bool

var (
	backendKinds = allowed{Latency: true, Err5xx: true, Conn: true, Hang: true, Crash: true}
	wireKinds    = allowed{Latency: true, Err5xx: true, Conn: true, Corrupt: true, Hang: true, Crash: true}
)

// decide evaluates one event at the given seam coordinates. Rules run in
// spec order; the first eligible rule fires and wins the event. Every
// matching rule's seen counter advances whether or not it fires, so "after"
// counts matching traffic, not quiet time.
func (in *Injector) decide(kinds allowed, stage, worker string) Decision {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.Events++
	var d Decision
	for _, r := range in.rules {
		if !kinds[r.kind] || !r.matches(stage, worker) {
			continue
		}
		r.seen++
		if d.Faulted() || r.seen <= r.after {
			continue
		}
		// Crash latches: once armed it fires forever — p and count
		// deliberately do not apply, a dead process stays dead.
		if r.kind != Crash {
			if r.count > 0 && r.injected >= r.count {
				continue
			}
			if r.p < 1 && in.rng.Float64() >= r.p {
				continue
			}
		}
		r.injected++
		d = Decision{Kind: r.kind, Delay: r.delay, Status: r.status}
		in.stats.Injected++
		switch r.kind {
		case Latency:
			in.stats.Latency++
		case Err5xx:
			in.stats.Err5xx++
		case Conn:
			in.stats.Conn++
		case Corrupt:
			in.stats.Corrupt++
		case Hang:
			in.stats.Hang++
		case Crash:
			in.stats.Crash++
		}
	}
	return d
}

// Stats is the injector's fault accounting: events seen and faults fired by
// kind. Injected always equals the sum of the per-kind counters.
//
// Counting fields are conserved accounting: the llmqlint accounting
// analyzer rejects keyed literals that set some counters and omit others.
//
//llmqlint:accounting
type Stats struct {
	// Events counts seam events evaluated; Injected the subset that drew a
	// fault.
	Events   int64 `json:"events"`
	Injected int64 `json:"injected"`
	// Per-kind injection counts.
	Latency int64 `json:"latency"`
	Err5xx  int64 `json:"err5xx"`
	Conn    int64 `json:"conn"`
	Corrupt int64 `json:"corrupt"`
	Hang    int64 `json:"hang"`
	Crash   int64 `json:"crash"`
}

// Stats snapshots the injector's accounting.
//
//llmqlint:api the cluster router tests count POSTs through an injector's events
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// InjectedError is a fault surfaced as an error; seams and tests dispatch
// on it via errors.As to tell chaos from genuine failures.
type InjectedError struct {
	Kind Kind
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faults: injected %s fault", e.Kind)
}
