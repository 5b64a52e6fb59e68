package faults

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/llmsim"
)

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"explode",                  // unknown kind
		"latency:delay",            // malformed param
		"5xx:p=1.5",                // p out of range
		"5xx:status=200",           // non-5xx status
		"latency:delay=soon",       // bad duration
		"seed=ten;latency",         // bad seed
		"latency:volume=11",        // unknown param
		"crash:after=x",            // bad int
		"corrupt:count=notanumber", // bad int
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted, want error", spec)
		}
	}
	for _, spec := range []string{
		"",
		"seed=42",
		"latency:delay=200ms:p=0.3;5xx:count=3;crash:after=10",
		"conn:worker=18091;hang:stage=sql-where;corrupt:p=0.5:after=2",
	} {
		if _, err := Parse(spec); err != nil {
			t.Errorf("Parse(%q) = %v, want ok", spec, err)
		}
	}
}

// TestDeterministicReplay: two injectors parsed from the same spec make
// identical decisions over an identical event sequence — the property the
// chaos suite's fault-free diffing rests on.
func TestDeterministicReplay(t *testing.T) {
	const spec = "seed=7;latency:p=0.4:delay=1ms;5xx:p=0.3;conn:p=0.2"
	run := func() []Kind {
		in := MustParse(spec)
		var kinds []Kind
		for i := 0; i < 200; i++ {
			kinds = append(kinds, in.decide(wireKinds, "", "w1").Kind)
		}
		return kinds
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d: %q vs %q — replay diverged", i, a[i], b[i])
		}
	}
}

func TestCountAfterAndProbability(t *testing.T) {
	in := MustParse("5xx:count=3:after=2")
	var fired int
	for i := 0; i < 10; i++ {
		if in.decide(wireKinds, "", "").Faulted() {
			fired++
		}
	}
	if fired != 3 {
		t.Errorf("fired %d faults, want 3 (count cap)", fired)
	}
	st := in.Stats()
	if st.Events != 10 || st.Injected != 3 || st.Err5xx != 3 {
		t.Errorf("stats = %+v, want Events 10, Injected 3, Err5xx 3", st)
	}

	// after=2 means events 1 and 2 pass clean.
	in2 := MustParse("conn:after=2")
	if in2.decide(wireKinds, "", "").Faulted() || in2.decide(wireKinds, "", "").Faulted() {
		t.Error("fault fired within the after window")
	}
	if !in2.decide(wireKinds, "", "").Faulted() {
		t.Error("fault did not fire after the window")
	}

	// p=0 never fires, p=1 always fires.
	if MustParse("5xx:p=0").decide(wireKinds, "", "").Faulted() {
		t.Error("p=0 fired")
	}
	if !MustParse("5xx:p=1").decide(wireKinds, "", "").Faulted() {
		t.Error("p=1 did not fire")
	}
}

func TestSelectorsScopeRules(t *testing.T) {
	in := MustParse("5xx:worker=18091;conn:stage=hot-stage")
	// Wrong host, wrong stage: nothing fires.
	if in.decide(wireKinds, "", "127.0.0.1:18092").Faulted() {
		t.Error("worker selector matched the wrong host")
	}
	if in.decide(backendKinds, "cold-stage", "").Faulted() {
		t.Error("stage selector matched the wrong stage")
	}
	// A selector requiring a coordinate the seam lacks never matches.
	if in.decide(wireKinds, "", "").Faulted() {
		t.Error("selector fired without its coordinate")
	}
	if d := in.decide(wireKinds, "", "127.0.0.1:18091"); d.Kind != Err5xx {
		t.Errorf("host match fired %q, want 5xx", d.Kind)
	}
	if d := in.decide(backendKinds, "sql-where-hot-stage-1", ""); d.Kind != Conn {
		t.Errorf("stage match fired %q, want conn", d.Kind)
	}
}

// TestCorruptNeverFiresOnBackendSeam: there is no wire below the Backend
// seam; a corrupt rule waits for an HTTP seam instead of misfiring.
func TestCorruptNeverFiresOnBackendSeam(t *testing.T) {
	in := MustParse("corrupt")
	if in.decide(backendKinds, "any", "").Faulted() {
		t.Fatal("corrupt fired on the backend seam")
	}
	if !in.decide(wireKinds, "", "").Faulted() {
		t.Fatal("corrupt did not fire on the wire seam")
	}
}

// okBackend is a minimal deterministic inner backend.
type okBackend struct{ batches int }

func (o *okBackend) RunBatch(ctx context.Context, spec backend.BatchSpec) (backend.BatchResult, error) {
	if err := ctx.Err(); err != nil {
		return backend.BatchResult{}, err
	}
	o.batches++
	return backend.BatchResult{ModelCalls: len(spec.Requests)}, nil
}
func (o *okBackend) Close() error { return nil }

func oneRowSpec(stage string) backend.BatchSpec {
	return backend.BatchSpec{
		StageKey: stage,
		Requests: []*llmsim.Request{{ID: 0, OutTokens: 4}},
	}
}

func TestBackendDecorator(t *testing.T) {
	ctx := context.Background()

	// Passthrough: nil injector and empty spec change nothing.
	inner := &okBackend{}
	fb := NewBackend(inner, nil)
	if _, err := fb.RunBatch(ctx, oneRowSpec("s")); err != nil || inner.batches != 1 {
		t.Fatalf("nil-injector passthrough: err=%v batches=%d", err, inner.batches)
	}
	if fb.Unwrap() != backend.Backend(inner) {
		t.Error("Unwrap did not return the inner backend")
	}

	// Transient error injection surfaces as InjectedError; the inner
	// backend never sees the batch.
	inner2 := &okBackend{}
	fb2 := NewBackend(inner2, MustParse("5xx:count=1"))
	if _, err := fb2.RunBatch(ctx, oneRowSpec("s")); !IsInjected(err) {
		t.Fatalf("err = %v, want injected", err)
	}
	if inner2.batches != 0 {
		t.Error("inner backend served a faulted batch")
	}
	if _, err := fb2.RunBatch(ctx, oneRowSpec("s")); err != nil {
		t.Fatalf("count-exhausted rule still fired: %v", err)
	}

	// Latency delays but serves.
	fb3 := NewBackend(&okBackend{}, MustParse("latency:delay=30ms"))
	start := time.Now()
	if _, err := fb3.RunBatch(ctx, oneRowSpec("s")); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Errorf("latency fault delayed only %v", el)
	}

	// Crash latches permanently.
	inner4 := &okBackend{}
	fb4 := NewBackend(inner4, MustParse("crash:after=1"))
	if _, err := fb4.RunBatch(ctx, oneRowSpec("s")); err != nil {
		t.Fatalf("pre-crash batch failed: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := fb4.RunBatch(ctx, oneRowSpec("s")); !IsInjected(err) {
			t.Fatalf("post-crash batch %d: err = %v, want injected", i, err)
		}
	}
	if inner4.batches != 1 {
		t.Errorf("inner served %d batches, want 1 (crash latched)", inner4.batches)
	}

	// Hang blocks until the context dies.
	fb5 := NewBackend(&okBackend{}, MustParse("hang"))
	hctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, err := fb5.RunBatch(hctx, oneRowSpec("s")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hang err = %v, want deadline exceeded", err)
	}
}

func TestRoundTripperInjectsWireFaults(t *testing.T) {
	var served int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served++
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"ok":true,"payload":"0123456789abcdef"}`))
	}))
	defer srv.Close()

	get := func(c *http.Client) (*http.Response, error) {
		req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, srv.URL, nil)
		if err != nil {
			t.Fatal(err)
		}
		return c.Do(req)
	}

	// 5xx synthesized without touching the server.
	c := &http.Client{Transport: NewRoundTripper(nil, MustParse("5xx:count=1:status=500"))}
	resp, err := get(c)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 500 {
		t.Errorf("status = %d, want 500", resp.StatusCode)
	}
	resp.Body.Close()
	if served != 0 {
		t.Error("server saw a synthesized-5xx request")
	}
	// Rule exhausted: real response passes through.
	resp, err = get(c)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("passthrough after count: %v / %v", err, resp)
	}
	resp.Body.Close()

	// Conn error: no response at all, chain dispatchable.
	c = &http.Client{Transport: NewRoundTripper(nil, MustParse("conn"))}
	if _, err := get(c); err == nil || !IsInjected(err) {
		t.Errorf("conn fault err = %v, want injected", err)
	}

	// Corrupt: 200 with an undecodable body.
	c = &http.Client{Transport: NewRoundTripper(nil, MustParse("corrupt"))}
	resp, err = get(c)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("corrupt status = %d, want 200", resp.StatusCode)
	}
	var v map[string]any
	if json.Unmarshal(body, &v) == nil {
		t.Errorf("corrupt body %q still decodes", body)
	}

	// Crash latches the host dead.
	c = &http.Client{Transport: NewRoundTripper(nil, MustParse("crash:after=1"))}
	if resp, err := get(c); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	for i := 0; i < 2; i++ {
		if _, err := get(c); err == nil || !IsInjected(err) {
			t.Fatalf("post-crash request %d: err = %v, want injected", i, err)
		}
	}
}

func TestMiddlewareInjectsServerSideFaults(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"ok":true}`))
	})

	// 5xx answer.
	srv := httptest.NewServer(Middleware(MustParse("5xx:count=1"), inner))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 503 {
		t.Errorf("status = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
	if resp, err = http.Get(srv.URL); err != nil || resp.StatusCode != 200 {
		t.Fatalf("passthrough after count: %v / %v", err, resp)
	}
	resp.Body.Close()

	// Conn abort: the client sees a transport error, not a status.
	srv2 := httptest.NewServer(Middleware(MustParse("conn"), inner))
	defer srv2.Close()
	if _, err := http.Get(srv2.URL); err == nil {
		t.Error("aborted connection produced a response")
	}

	// Crash latches: every request after the trigger aborts, including
	// paths the inner handler would have served.
	srv3 := httptest.NewServer(Middleware(MustParse("crash:after=1"), inner))
	defer srv3.Close()
	if resp, err := http.Get(srv3.URL); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	for i := 0; i < 2; i++ {
		if _, err := http.Get(srv3.URL); err == nil {
			t.Fatalf("post-crash request %d succeeded", i)
		}
	}

	// Corrupt: 200 with a truncated JSON body.
	srv4 := httptest.NewServer(Middleware(MustParse("corrupt"), inner))
	defer srv4.Close()
	resp, err = http.Get(srv4.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var v map[string]any
	if json.Unmarshal(body, &v) == nil {
		t.Errorf("corrupt body %q still decodes", body)
	}
}

// MustParse is Parse for specs fixed in a test.
func MustParse(spec string) *Injector {
	in, err := Parse(spec)
	if err != nil {
		panic(err)
	}
	return in
}

// IsInjected reports whether err (anywhere in its chain) was injected by
// this package.
func IsInjected(err error) bool {
	var ie *InjectedError
	return errors.As(err, &ie)
}
