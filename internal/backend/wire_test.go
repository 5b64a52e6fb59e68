// The /v1/batch codec against an encoding/json reference: whatever the
// hand-written decoder accepts, a plain struct decode of the same bytes
// (delta-expanded) accepts with equal values, and what the encoder writes
// reads back as the spec it was given.
package backend_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/llmsim"
	"repro/internal/query"
	"repro/internal/sqlfront"
	"repro/internal/tokenizer"
)

// refWireBatch is the wire body as encoding/json sees it: the reference the
// codec is held to, reflective and lenient (any key case, repeated keys,
// null anywhere), and the only place the request list is still decoded by
// reflection.
type refWireBatch struct {
	StageKey string `json:"stageKey"`
	Client   string `json:"client"`
	Class    string `json:"class"`
	Requests []struct {
		ID        int               `json:"id"`
		Shared    int               `json:"shared"`
		Prompt    []tokenizer.Token `json:"prompt"`
		OutTokens int               `json:"outTokens"`
	} `json:"requests"`
	Groups []int         `json:"groups"`
	Engine llmsim.Config `json:"engine"`
}

// refDecode is the reference decode: one value with unknown fields refused,
// nothing but whitespace after it, then each prompt rebuilt from its
// predecessor.
func refDecode(body []byte) (backend.WireBatch, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var ref refWireBatch
	if err := dec.Decode(&ref); err != nil {
		return backend.WireBatch{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return backend.WireBatch{}, fmt.Errorf("trailing data (%v)", err)
	}
	wb := backend.WireBatch{StageKey: ref.StageKey, Client: ref.Client, Class: ref.Class, Groups: ref.Groups, Engine: ref.Engine}
	var prev []tokenizer.Token
	for _, r := range ref.Requests {
		if r.Shared < 0 || r.Shared > len(prev) {
			return backend.WireBatch{}, fmt.Errorf("shared %d of %d", r.Shared, len(prev))
		}
		prev = append(slices.Clone(prev[:r.Shared]), r.Prompt...)
		wb.Requests = append(wb.Requests, backend.WireRequest{ID: r.ID, Prompt: prev, OutTokens: r.OutTokens})
	}
	return wb, nil
}

// sameWireBatch compares two decoded batches by value (a nil and an empty
// slice are the same prompt).
func sameWireBatch(t *testing.T, got, want backend.WireBatch) {
	t.Helper()
	if got.StageKey != want.StageKey || got.Client != want.Client || got.Class != want.Class {
		t.Fatalf("identity = %q/%q/%q, want %q/%q/%q", got.StageKey, got.Client, got.Class, want.StageKey, want.Client, want.Class)
	}
	if !slices.Equal(got.Groups, want.Groups) {
		t.Fatalf("groups = %v, want %v", got.Groups, want.Groups)
	}
	if ge, we := fmt.Sprintf("%+v", got.Engine), fmt.Sprintf("%+v", want.Engine); ge != we {
		t.Fatalf("engine = %s, want %s", ge, we)
	}
	if len(got.Requests) != len(want.Requests) {
		t.Fatalf("%d requests, want %d", len(got.Requests), len(want.Requests))
	}
	for i, g := range got.Requests {
		w := want.Requests[i]
		if g.ID != w.ID || g.OutTokens != w.OutTokens || !slices.Equal(g.Prompt, w.Prompt) {
			t.Fatalf("request %d = %+v, want %+v", i, g, w)
		}
	}
}

// wireSeeds are the bodies that really travel — the conformance statements'
// GGR-scheduled stages as backend.Remote encodes them — so both fuzz targets
// start from delta bodies with long shared runs.
func wireSeeds(f *testing.F) [][]byte {
	tap := &specTap{Backend: backend.NewSim()}
	db := sqlfront.NewDB()
	db.Register("tickets", ticketsTable(24))
	for _, sql := range conformanceStatements {
		if _, err := db.Exec(sql, sqlfront.ExecConfig{Config: query.Config{Backend: tap}}); err != nil {
			f.Fatal(err)
		}
	}
	var bodies [][]byte
	for _, spec := range tap.specs {
		body, err := json.Marshal(backend.EncodeWireBatch(spec, backend.ClientInfo{Client: "seed"}))
		if err != nil {
			f.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	return bodies
}

// wireCases is one hand-written body per rule of the decoder, accepted
// spellings and refused ones; the strictness test walks it and
// FuzzWireBatchDecode starts from it.
var wireCases = []struct {
	name, body string
	reject     string // a fragment of the error; "" means accepted
	at         int    // the byte offset the error names
}{
	{"full prompts", `{"stageKey":"s","requests":[{"id":1,"prompt":[1,2],"outTokens":1},{"id":2,"prompt":[1,3],"outTokens":1}],"groups":[0,1]}`, "", 0},
	{"delta", `{"requests":[{"id":1,"prompt":[1,2,3]},{"id":2,"shared":2,"prompt":[9]},{"id":3,"shared":3},{"id":4,"shared":0,"prompt":[]}]}`, "", 0},
	{"whitespace", " {\n\t\"requests\" : [ { \"id\" : 1 , \"prompt\" : [ 1 , -2 ] } ] ,\r\n \"engine\" : { \"BlockSize\" : 16 } } \n", "", 0},
	{"escaped string", `{"stageKey":"a\"b\\é","client":"<&>","requests":[{"id":1}]}`, "", 0},
	{"empty object", `{}`, "", 0},
	{"bad groups", `{"requests":[{"id":1},{"id":1},{"id":2}],"groups":[1,2]}`, "", 0},
	{"no requests", `{"requests":[],"groups":[0]}`, "", 0},
	{"trailing garbage", `{"requests":[{"id":1}]}garbage`, "trailing data", 23},
	{"second value", `{"requests":[{"id":1}]} {}`, "trailing data", 24},
	{"wrong-case key", `{"REQUESTS":[{"id":1}]}`, `unknown field "REQUESTS"`, 1},
	{"wrong-case request key", `{"requests":[{"Id":1}]}`, `unknown field "Id"`, 14},
	{"escaped key", `{"requests":[{"\u0069d":1}]}`, "unknown field", 14},
	{"unknown key", `{"requests":[{"id":1}],"naive":true}`, `unknown field "naive"`, 23},
	{"unknown request key", `{"requests":[{"id":1,"matched":3}]}`, `unknown field "matched"`, 21},
	{"unknown engine key", `{"requests":[{"id":1}],"engine":{"Bogus":1}}`, "invalid engine config", 32},
	{"duplicate key", `{"stageKey":"a","stageKey":"b"}`, `duplicate field "stageKey"`, 16},
	{"duplicate request key", `{"requests":[{"id":1,"id":2}]}`, `duplicate field "id"`, 21},
	{"shared on the first request", `{"requests":[{"id":1,"shared":1,"prompt":[1]}]}`, `"shared" 1 outside the previous prompt's 0 tokens`, 30},
	{"shared past the previous prompt", `{"requests":[{"prompt":[1,2]},{"shared":3}]}`, `"shared" 3 outside the previous prompt's 2 tokens`, 40},
	{"negative shared", `{"requests":[{"prompt":[1,2]},{"shared":-1}]}`, `"shared" -1 outside`, 40},
	{"shared after prompt", `{"requests":[{"prompt":[1,2]},{"prompt":[],"shared":2}]}`, `"shared" after "prompt"`, 52},
	{"float", `{"requests":[{"id":1.0}]}`, "not a plain integer", 19},
	{"exponent", `{"requests":[{"id":1,"prompt":[1E2]}]}`, "not a plain integer", 31},
	{"leading zero", `{"requests":[{"id":01}]}`, "leading zero", 19},
	{"token past int32", `{"requests":[{"prompt":[2147483648]}]}`, "does not fit 32 bits", 24},
	{"token at int32 min", `{"requests":[{"prompt":[-2147483648,2147483647]}]}`, "", 0},
	{"id past int64", `{"requests":[{"id":9223372036854775808}]}`, "does not fit 64 bits", 19},
	{"id at int64 min", `{"requests":[{"id":-9223372036854775808}]}`, "", 0},
	{"twenty digits", `{"requests":[{"id":18446744073709551617}]}`, "does not fit 64 bits", 19},
	{"null prompt", `{"requests":[{"id":1,"prompt":null}]}`, `expected '['`, 30},
	{"null string", `{"stageKey":null}`, `expected '"'`, 12},
	{"null engine", `{"engine":null}`, "expected an object", 10},
	{"string id", `{"requests":[{"id":"1"}]}`, "expected an integer", 19},
	{"control byte in string", "{\"stageKey\":\"a\nb\"}", "invalid string", 12},
	{"unterminated string", `{"stageKey":"abc`, "unterminated string", 12},
	{"unterminated key", `{"stageKey`, "unterminated key", 1},
	{"unterminated engine", `{"engine":{"Cost":{"a":"}"`, "unterminated engine config", 10},
	{"missing comma", `{"requests":[{"id":1}{"id":2}]}`, `expected ',' or ']'`, 21},
	{"trailing comma", `{"requests":[{"id":1},]}`, `expected '{'`, 22},
	{"truncated", `{"requests":[{"id":1,"prompt":[1,2`, `expected ',' or ']'`, 34},
	{"not an object", `[1,2]`, `expected '{'`, 0},
	{"empty", ``, `expected '{'`, 0},
}

func TestWireDecodeStrictness(t *testing.T) {
	for _, tc := range wireCases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := backend.DecodeWireBatch([]byte(tc.body))
			if tc.reject == "" {
				if err != nil {
					t.Fatalf("rejected: %v", err)
				}
				want, err := refDecode([]byte(tc.body))
				if err != nil {
					t.Fatalf("accepted what the reference rejects: %v", err)
				}
				sameWireBatch(t, got, want)
				return
			}
			if err == nil {
				t.Fatalf("accepted %s", tc.body)
			}
			if want := fmt.Sprintf("at byte %d", tc.at); !strings.Contains(err.Error(), tc.reject) || !strings.HasSuffix(err.Error(), want) {
				t.Errorf("err = %q, want it to say %q %s", err, tc.reject, want)
			}
		})
	}
}

// FuzzWireBatchDecode: arbitrary bytes never panic the decoder, whatever it
// accepts the reference accepts, and the two agree on every value up to the
// BatchSpec a worker would run.
func FuzzWireBatchDecode(f *testing.F) {
	for _, body := range wireSeeds(f) {
		f.Add(body)
	}
	for _, tc := range wireCases {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := backend.DecodeWireBatch(body)
		if err != nil {
			return
		}
		want, err := refDecode(body)
		if err != nil {
			t.Fatalf("accepted what the reference rejects: %v", err)
		}
		sameWireBatch(t, got, want)
		gs, gerr := got.Spec()
		ws, werr := want.Spec()
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("Spec() err = %v, the reference's %v", gerr, werr)
		}
		if gerr == nil {
			sameWireBatch(t, backend.EncodeWireBatch(gs, backend.ClientInfo{}), backend.EncodeWireBatch(ws, backend.ClientInfo{}))
		}
	})
}

// randomWireSpec draws a batch whose neighbours share prefixes the ways a
// schedule's do and a few ways it never would.
func randomWireSpec(rng *rand.Rand) backend.BatchSpec {
	spec := backend.BatchSpec{
		StageKey: strings.Repeat("stage \"key\" <é>\n", rng.IntN(3)),
		Engine:   llmsim.Config{BlockSize: 16 * rng.IntN(3), CacheEnabled: rng.IntN(2) == 0, CapacityOverride: rng.Int64N(1 << 40)},
	}
	token := func() tokenizer.Token { return tokenizer.Token(rng.Int32N(1<<17) - 1<<8) } // some negative
	var prev []tokenizer.Token
	for i, n := 0, 1+rng.IntN(12)*rng.IntN(8); i < n; i++ {
		var prompt []tokenizer.Token
		switch rng.IntN(6) {
		case 0: // identical to its neighbour
			prompt = slices.Clone(prev)
		case 1: // empty, nil or not
			if rng.IntN(2) == 0 {
				prompt = []tokenizer.Token{}
			}
		case 2: // a strict prefix of its predecessor
			prompt = slices.Clone(prev[:rng.IntN(len(prev)+1)])
		case 3: // unrelated
			for k := rng.IntN(40); k > 0; k-- {
				prompt = append(prompt, token())
			}
		default: // the predecessor's head and a tail of its own
			prompt = slices.Clone(prev[:rng.IntN(len(prev)+1)])
			for k := rng.IntN(20); k > 0; k-- {
				prompt = append(prompt, token())
			}
		}
		if rng.IntN(4) == 0 {
			spec.Groups = append(spec.Groups, i)
		}
		spec.Requests = append(spec.Requests, &llmsim.Request{ID: rng.IntN(1<<20) - 1<<10, Prompt: prompt, OutTokens: rng.IntN(64)})
		prev = prompt
	}
	if len(spec.Groups) > 0 {
		spec.Groups[0] = 0
	}
	return spec
}

// fullFormLen is the length of wb written without "shared": what the body
// was before the delta, field for field.
func fullFormLen(t *testing.T, wb backend.WireBatch) int {
	t.Helper()
	type req struct {
		ID        int               `json:"id"`
		Prompt    []tokenizer.Token `json:"prompt"`
		OutTokens int               `json:"outTokens"`
	}
	full := struct {
		StageKey string        `json:"stageKey"`
		Client   string        `json:"client,omitempty"`
		Class    string        `json:"class,omitempty"`
		Requests []req         `json:"requests"`
		Groups   []int         `json:"groups,omitempty"`
		Engine   llmsim.Config `json:"engine"`
	}{wb.StageKey, wb.Client, wb.Class, nil, wb.Groups, wb.Engine}
	for _, r := range wb.Requests {
		full.Requests = append(full.Requests, req{r.ID, slices.Clone(r.Prompt), r.OutTokens})
		if full.Requests[len(full.Requests)-1].Prompt == nil {
			full.Requests[len(full.Requests)-1].Prompt = []tokenizer.Token{} // "[]" as the codec writes it, not "null"
		}
	}
	body, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	return len(body)
}

// TestWireRoundTrip: decode(encode(spec)) == spec over seeded random batches
// and every part SplitByGroups cuts them into, through the direct functions
// and through encoding/json alike, never in more bytes than the full form —
// and a full-form body (an older router's) decodes to the same batch.
func TestWireRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewPCG(seed, 23))
		spec := randomWireSpec(rng)
		specs := []backend.BatchSpec{spec}
		parts, err := backend.SplitByGroups(spec, 1+rng.IntN(4))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, spec := range append(specs, parts...) {
			want := backend.EncodeWireBatch(spec, backend.ClientInfo{Client: "c", Class: []string{"", "batch"}[seed%2]})
			body, err := want.AppendJSON(nil)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if full := fullFormLen(t, want); len(body) > full {
				t.Errorf("seed %d: %d bytes, the full form is %d", seed, len(body), full)
			}
			got, err := backend.DecodeWireBatch(body)
			if err != nil {
				t.Fatalf("seed %d: %v\n%s", seed, err, body)
			}
			sameWireBatch(t, got, want)
			for i, r := range got.Requests {
				if cap(r.Prompt) != len(r.Prompt) {
					t.Fatalf("seed %d: request %d's prompt has %d spare capacity over its neighbour", seed, i, cap(r.Prompt)-len(r.Prompt))
				}
			}
			ref, err := refDecode(body)
			if err != nil {
				t.Fatalf("seed %d: the reference rejects the encoder's bytes: %v", seed, err)
			}
			sameWireBatch(t, ref, want)

			viaJSON, err := json.Marshal(want)
			if err != nil || !bytes.Equal(viaJSON, body) {
				t.Fatalf("seed %d: json.Marshal = %s (%v), AppendJSON = %s", seed, viaJSON, err, body)
			}
			var back backend.WireBatch
			if err := json.Unmarshal(body, &back); err != nil {
				t.Fatalf("seed %d: json.Unmarshal: %v", seed, err)
			}
			sameWireBatch(t, back, want)

			gotSpec, err := got.Spec()
			if err != nil {
				t.Fatalf("seed %d: Spec(): %v", seed, err)
			}
			sameWireBatch(t, backend.EncodeWireBatch(gotSpec, backend.ClientInfo{Client: want.Client, Class: want.Class}), want)
		}
	}
}

// TestWireDecodeAllocs pins what decoding costs beyond the bytes it must
// keep: the prompt slab, the request slice, and a fixed number of small
// allocations (scratch, strings, groups, the engine's encoding/json decode)
// that does not grow with the batch.
func TestWireDecodeAllocs(t *testing.T) {
	allocs := func(requests int) float64 {
		spec := accountingSpec([]int{requests / 4, requests / 4, requests / 2}, 96, 8)
		for i, r := range spec.Requests {
			r.Prompt[64+i%32] = tokenizer.Token(1000 + i) // neighbours share a run, then part
		}
		spec.Engine = llmsim.Config{Cost: llmsim.CostModel{Model: llmsim.Llama3_8B, Cluster: llmsim.SingleL4}, CacheEnabled: true}
		body, err := backend.EncodeWireBatch(spec, backend.ClientInfo{Client: "c0", Class: "interactive"}).AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := backend.DecodeWireBatch(body); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(64), allocs(1024)
	if small != large {
		t.Errorf("decode allocations grow with the batch: %v for 64 requests, %v for 1024", small, large)
	}
	if small > 40 {
		t.Errorf("decoding a 64-request batch costs %v allocations, want the slabs plus a small constant", small)
	}
}

// TestRemoteUnencodableResultIsFinal: a batch whose engine config makes the
// metrics non-finite is answered 422 — one attempt, no retry, nothing for a
// router to fail over on.
func TestRemoteUnencodableResultIsFinal(t *testing.T) {
	rem := newRemoteConformance().(*remoteHarness)
	defer rem.Close()
	spec := accountingSpec([]int{2}, 10, 4) // the zero engine config: a zero cost model divides by zero
	_, err := rem.RunBatch(context.Background(), spec)
	var re *backend.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *backend.RemoteError", err)
	}
	if re.Status != 422 || re.Code != "execution_failed" || re.Transient() {
		t.Errorf("rejection = %+v, want final execution_failed/422", re)
	}
	if st := rem.Stats(); st.Errors != 1 || st.Batches != 0 {
		t.Errorf("stats = %+v, want one failed batch", st)
	}
}

// BenchmarkWireCodec is the product path on one batch the size fleet-routed
// sends (66 requests of 200 tokens, about 60 % of them a neighbour's): what
// backend.Remote pays to encode it and a worker to decode it and build the
// spec. perf/ times the same two through encoding/json's wrappers.
func BenchmarkWireCodec(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	spec := backend.BatchSpec{StageKey: strings.Repeat("stage-fingerprint ", 24), Engine: llmsim.Config{
		Cost: llmsim.CostModel{Model: llmsim.Llama3_8B, Cluster: llmsim.SingleL4}, CacheEnabled: true}}
	var prev []tokenizer.Token
	for i := 0; i < 66; i++ {
		prompt := make([]tokenizer.Token, 200)
		n := 0
		if i > 0 {
			n = copy(prompt, prev[:90+rng.IntN(60)])
		}
		for ; n < len(prompt); n++ {
			prompt[n] = tokenizer.Token(rng.IntN(30000))
		}
		if i%8 == 0 {
			spec.Groups = append(spec.Groups, i)
		}
		spec.Requests = append(spec.Requests, &llmsim.Request{ID: i, Prompt: prompt, OutTokens: 8})
		prev = prompt
	}
	ci := backend.ClientInfo{Client: "c0", Class: "interactive"}
	body, err := backend.EncodeWireBatch(spec, ci).AppendJSON(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := backend.EncodeWireBatch(spec, ci).AppendJSON(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			wb, err := backend.DecodeWireBatch(body)
			if err == nil {
				_, err = wb.Spec()
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}
