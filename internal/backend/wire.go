package backend

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/llmsim"
	"repro/internal/tokenizer"
)

// This file is the /v1/batch wire contract: the JSON forms of BatchSpec and
// BatchResult that backend.Remote sends to a cluster worker and the worker's
// handler decodes back. Token IDs travel as-is — the tokenizer interns
// deterministically, and the oracle answers on the ROUTER side (answers are
// content-keyed above the seam), so a worker only ever accounts serving
// cost; it never needs to detokenize. Request result fields
// (Matched/StartTime/EndTime) are engine-internal and deliberately excluded:
// nothing above the seam consumes them, so they do not round-trip.
//
// The request list is prefix-delta in bytes and only there: request i
// carries "shared": n — its leading n tokens equal request i-1's — and its
// remaining tokens in "prompt". A GGR schedule is prefix-sorted, so most of
// a batch's tokens are a neighbour's; in memory every Prompt is whole on
// both sides. There is one format (a full prompt is shared = 0, which is
// omitted), written by AppendJSON and read by DecodeWireBatch; encoding/json
// reaches the same two through MarshalJSON and UnmarshalJSON.

const (
	// MaxWireBody caps the bytes of a /v1 request body.
	MaxWireBody = 64 << 20
	// MaxWireTokens caps the prompt tokens one /v1/batch body may expand to
	// — what a full-form body of MaxWireBody bytes could carry at two bytes
	// a token — since "shared" lets few bytes name many.
	MaxWireTokens = MaxWireBody / 2
)

// WireRequest is one tokenized request on the wire. Prompt is the whole
// prompt; the bytes carry only what follows the run shared with the request
// before it.
type WireRequest struct {
	ID        int
	Prompt    []tokenizer.Token
	OutTokens int
}

// WireBatch is the POST /v1/batch request body: a BatchSpec plus the
// originating tenant's identity, so the worker's access log and per-client
// accounting attribute remote batches to the client that caused them rather
// than to the router process.
type WireBatch struct {
	StageKey string
	// Client / Class identify the originating tenant ("" means anonymous /
	// interactive; omitted on the wire). A batch coalesced from several
	// tenants' statements travels as client "shared".
	Client   string
	Class    string
	Requests []WireRequest
	// Groups is omitted on the wire when empty.
	Groups []int
	// Engine is the llmsim.Config verbatim (field names are the wire
	// contract); its Trace writer is process-local and always travels null.
	Engine llmsim.Config
}

// WireResult is the POST /v1/batch success body: a BatchResult verbatim.
//
// Counting fields are conserved accounting: the llmqlint accounting
// analyzer rejects keyed literals that set some counters and omit others.
//
//llmqlint:accounting
type WireResult struct {
	Metrics    llmsim.Metrics `json:"metrics"`
	ModelCalls int            `json:"modelCalls"`
}

// EncodeWireBatch renders spec for the wire under the given tenant
// identity, stripping the process-local Trace writer from the engine config.
func EncodeWireBatch(spec BatchSpec, ci ClientInfo) WireBatch {
	reqs := make([]WireRequest, len(spec.Requests))
	for i, r := range spec.Requests {
		reqs[i] = WireRequest{ID: r.ID, Prompt: r.Prompt, OutTokens: r.OutTokens}
	}
	eng := spec.Engine
	eng.Trace = nil
	return WireBatch{
		StageKey: spec.StageKey,
		Client:   ci.Client,
		Class:    ci.Class,
		Requests: reqs,
		Groups:   spec.Groups,
		Engine:   eng,
	}
}

// Spec materializes the wire batch back into a BatchSpec, validating the
// group annotation (the same check a sharding backend applies before
// cutting at group boundaries).
func (wb WireBatch) Spec() (BatchSpec, error) {
	if len(wb.Requests) == 0 {
		return BatchSpec{}, fmt.Errorf("backend: wire batch has no requests")
	}
	if err := validGroups(wb.Groups, len(wb.Requests)); err != nil {
		return BatchSpec{}, err
	}
	reqs := make([]*llmsim.Request, len(wb.Requests))
	for i, r := range wb.Requests {
		reqs[i] = &llmsim.Request{ID: r.ID, Prompt: r.Prompt, OutTokens: r.OutTokens}
	}
	return BatchSpec{
		StageKey: wb.StageKey,
		Requests: reqs,
		Groups:   wb.Groups,
		Engine:   wb.Engine,
	}, nil
}

// AppendJSON appends wb's wire form to dst: one pass over the requests,
// each prompt compared once against the one before it and only the tokens
// past their shared run written out.
func (wb WireBatch) AppendJSON(dst []byte) ([]byte, error) {
	dst = slices.Grow(dst, wb.sizeHint())
	var err error
	appendValue := func(key string, v any) {
		var b []byte
		if err == nil {
			b, err = json.Marshal(v)
		}
		dst = append(append(dst, key...), b...)
	}
	appendValue(`{"stageKey":`, wb.StageKey)
	if wb.Client != "" {
		appendValue(`,"client":`, wb.Client)
	}
	if wb.Class != "" {
		appendValue(`,"class":`, wb.Class)
	}
	dst = append(dst, `,"requests":[`...)
	var prev []tokenizer.Token
	for i, r := range wb.Requests {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(append(dst, `{"id":`...), int64(r.ID), 10)
		shared := sharedRun(prev, r.Prompt)
		if shared > 0 {
			dst = strconv.AppendInt(append(dst, `,"shared":`...), int64(shared), 10)
		}
		dst = appendInts(append(dst, `,"prompt":`...), r.Prompt[shared:])
		dst = strconv.AppendInt(append(dst, `,"outTokens":`...), int64(r.OutTokens), 10)
		dst = append(dst, '}')
		prev = r.Prompt
	}
	dst = append(dst, ']')
	if len(wb.Groups) > 0 {
		dst = appendInts(append(dst, `,"groups":`...), wb.Groups)
	}
	appendValue(`,"engine":`, wb.Engine)
	if err != nil {
		return nil, fmt.Errorf("backend: encode wire batch: %w", err)
	}
	return append(dst, '}'), nil
}

// sharedRun is the number of leading tokens of cur the wire takes from prev:
// the run the two have in common, or none of it when naming the run would
// take more bytes than repeating it (`,"shared":n` is eleven and up; a
// repeated token is two and up, less one comma).
func sharedRun(prev, cur []tokenizer.Token) int {
	n := 0
	for n < len(prev) && n < len(cur) && prev[n] == cur[n] {
		n++
	}
	if n < 6 {
		return 0
	}
	return n
}

// sizeHint estimates the wire form's length so AppendJSON grows its buffer
// once: the fixed parts, and six bytes for each token that is not shared
// (five digits and a comma cover a vocabulary of 100k; longer ids cost one
// more growth, nothing else).
func (wb WireBatch) sizeHint() int {
	suffix := 0
	var prev []tokenizer.Token
	for _, r := range wb.Requests {
		suffix += len(r.Prompt) - sharedRun(prev, r.Prompt)
		prev = r.Prompt
	}
	return 1024 + len(wb.StageKey) + 56*len(wb.Requests) + 6*suffix + 8*len(wb.Groups)
}

func appendInts[T ~int | ~int32](dst []byte, vals []T) []byte {
	dst = append(dst, '[')
	for i, v := range vals {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, ']')
}

// MarshalJSON is AppendJSON for callers that hold a WireBatch and speak
// encoding/json.
func (wb WireBatch) MarshalJSON() ([]byte, error) { return wb.AppendJSON(nil) }

// UnmarshalJSON is DecodeWireBatch for callers that speak encoding/json.
func (wb *WireBatch) UnmarshalJSON(data []byte) (err error) {
	*wb, err = DecodeWireBatch(data)
	return err
}

var (
	wireBatchKeys   = []string{"stageKey", "client", "class", "requests", "groups", "engine"}
	wireRequestKeys = []string{"id", "shared", "prompt", "outTokens"}
)

// DecodeWireBatch parses a /v1/batch body in one pass and rebuilds every
// prompt whole. The body is untrusted, and stricter than encoding/json would
// be on the same struct — whatever is accepted here, encoding/json accepts
// with an equal value: keys match byte for byte and at most once, unknown
// keys and trailing bytes are errors, null is no field's value, integers are
// plain and fit their Go type, "shared" comes before "prompt" and within the
// previous prompt, and the prompts together stay under MaxWireTokens. Every
// error names the byte offset it was found at.
func DecodeWireBatch(data []byte) (WireBatch, error) {
	c := &wireCursor{data: data}
	var wb WireBatch
	err := c.object(wireBatchKeys, func(key string) (err error) {
		switch key {
		case "stageKey":
			wb.StageKey, err = c.str()
		case "client":
			wb.Client, err = c.str()
		case "class":
			wb.Class, err = c.str()
		case "requests":
			wb.Requests, err = c.requests()
		case "groups":
			wb.Groups, err = parseInts(c, []int(nil), strconv.IntSize)
		case "engine":
			err = c.engine(&wb.Engine)
		}
		return err
	})
	if err != nil {
		return WireBatch{}, err
	}
	if c.peek(); c.pos < len(data) {
		return WireBatch{}, c.errf(c.pos, "trailing data after the batch")
	}
	return wb, nil
}

// wireCursor is a position-carrying cursor over a /v1/batch body.
type wireCursor struct {
	data []byte
	pos  int
}

func (c *wireCursor) errf(at int, format string, args ...any) error {
	return fmt.Errorf("backend: wire batch: %s at byte %d", fmt.Sprintf(format, args...), at)
}

// peek skips whitespace and returns the byte at the cursor, 0 at the end.
func (c *wireCursor) peek() byte {
	data, i := c.data, c.pos
	for ; i < len(data); i++ {
		if b := data[i]; b != ' ' && b != '\n' && b != '\t' && b != '\r' {
			c.pos = i
			return b
		}
	}
	c.pos = i
	return 0
}

func (c *wireCursor) expect(b byte) error {
	if c.peek() != b {
		return c.errf(c.pos, "expected %q", b)
	}
	c.pos++
	return nil
}

// more is called between the elements of an array or object closed by
// closer: it consumes a ',' and reports true, or the closer and false.
func (c *wireCursor) more(closer byte) (bool, error) {
	switch b := c.peek(); b {
	case ',', closer:
		c.pos++
		return b == ',', nil
	}
	return false, c.errf(c.pos, "expected ',' or %q", closer)
}

// object parses an object whose keys are among keys, each at most once,
// calling field with the key and the cursor at its value. A key matches byte
// for byte: another case or an escaped spelling is unknown.
func (c *wireCursor) object(keys []string, field func(key string) error) error {
	if err := c.expect('{'); err != nil {
		return err
	}
	if c.peek() == '}' {
		c.pos++
		return nil
	}
	seen := 0
	for more := true; more; {
		if err := c.expect('"'); err != nil {
			return err
		}
		at := c.pos
		end := bytes.IndexByte(c.data[at:], '"')
		if end < 0 {
			return c.errf(at-1, "unterminated key")
		}
		name, key := c.data[at:at+end], 0
		for key < len(keys) && keys[key] != string(name) {
			key++
		}
		switch {
		case key == len(keys):
			return c.errf(at-1, "unknown field %q", name[:min(len(name), 32)])
		case seen&(1<<key) != 0:
			return c.errf(at-1, "duplicate field %q", name)
		}
		seen |= 1 << key
		c.pos = at + end + 1
		err := c.expect(':')
		if err == nil {
			c.peek()
			err = field(keys[key])
		}
		if err == nil {
			more, err = c.more('}')
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// integer parses a JSON number that is a plain integer of at most bits
// bits: no fraction, no exponent, no leading zero. The cursor is at its
// first byte.
func (c *wireCursor) integer(bits int) (int64, error) {
	data, at, i := c.data, c.pos, c.pos
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	first := i
	var n uint64
	for ; i < len(data) && data[i]-'0' <= 9; i++ {
		n = n*10 + uint64(data[i]-'0')
	}
	limit := uint64(1)<<(bits-1) - 1 // the largest magnitude; one more when negative
	if neg {
		limit++
	}
	switch {
	case i == first:
		return 0, c.errf(at, "expected an integer")
	case data[first] == '0' && i-first > 1:
		return 0, c.errf(at, "integer with a leading zero")
	case i < len(data) && (data[i] == '.' || data[i]|0x20 == 'e'):
		return 0, c.errf(at, "number is not a plain integer")
	case i-first > 19 || n > limit: // 19 digits cannot wrap a uint64
		return 0, c.errf(at, "integer does not fit %d bits", bits)
	}
	c.pos = i
	if neg {
		return -int64(n), nil
	}
	return int64(n), nil
}

// parseInts appends the integer array at the cursor to dst.
func parseInts[T ~int | ~int32](c *wireCursor, dst []T, bits int) ([]T, error) {
	if err := c.expect('['); err != nil {
		return dst, err
	}
	if c.peek() == ']' {
		c.pos++
		return dst, nil
	}
	for more := true; more; {
		// The run the encoder writes — up to nine digits, then a comma —
		// is taken here without a call; integer judges everything else.
		data, i := c.data, c.pos
		var n T
		for ; i < len(data) && i-c.pos < 9 && data[i]-'0' <= 9; i++ {
			n = n*10 + T(data[i]-'0')
		}
		if i > c.pos && (data[c.pos] != '0' || i-c.pos == 1) && i < len(data) && data[i] == ',' {
			dst, c.pos = append(dst, n), i+1
			continue
		}
		c.peek()
		v, err := c.integer(bits)
		if err == nil {
			dst = append(dst, T(v))
			more, err = c.more(']')
		}
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// str parses a string value; what is between the quotes is encoding/json's
// to unescape and judge.
func (c *wireCursor) str() (string, error) {
	at := c.pos
	if err := c.expect('"'); err != nil {
		return "", err
	}
	for ; c.pos < len(c.data); c.pos++ {
		switch c.data[c.pos] {
		case '\\':
			c.pos++
		case '"':
			c.pos++
			var s string
			if err := json.Unmarshal(c.data[at:c.pos], &s); err != nil {
				return "", c.errf(at, "invalid string (%v)", err)
			}
			return s, nil
		}
	}
	return "", c.errf(at, "unterminated string")
}

// engine decodes the object at the cursor into cfg through encoding/json,
// unknown fields refused at every depth as on the other /v1 bodies. Its
// extent is found by counting brackets outside strings, which ends every
// valid object where it ends and leaves the invalid ones to encoding/json.
func (c *wireCursor) engine(cfg *llmsim.Config) error {
	at, depth := c.pos, 0
	if c.peek() != '{' {
		return c.errf(at, "expected an object")
	}
	for ; c.pos < len(c.data); c.pos++ {
		switch c.data[c.pos] {
		case '"':
			for c.pos++; c.pos < len(c.data) && c.data[c.pos] != '"'; c.pos++ {
				if c.data[c.pos] == '\\' {
					c.pos++
				}
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth > 0 {
				continue
			}
			c.pos++
			dec := json.NewDecoder(bytes.NewReader(c.data[at:c.pos]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(cfg); err != nil {
				return c.errf(at, "invalid engine config (%v)", err)
			}
			return nil
		}
	}
	return c.errf(at, "unterminated engine config")
}

// requests parses the request list. Suffix tokens land in one scratch slab
// as they are read; once every "shared" is known the prompts are expanded
// into a slab of exactly their total, each a capacity-limited window of it
// (as query.PromptTokens lays out the prompts it builds).
func (c *wireCursor) requests() ([]WireRequest, error) {
	if err := c.expect('['); err != nil {
		return nil, err
	}
	if c.peek() == ']' {
		c.pos++
		return nil, nil
	}
	// Size hints from two byte counts, each capped so that nothing allocated
	// before the body has proved itself exceeds a small multiple of it: a
	// request the encoder writes is over 32 bytes, a token at least 2.
	rest := c.data[c.pos:]
	hint := min(bytes.Count(rest, []byte{'{'}), len(rest)/32)
	reqs := make([]WireRequest, 0, hint)
	type delta struct{ shared, end int } // tokens taken from the previous prompt; end of the suffix in scratch
	deltas := make([]delta, 0, hint)
	scratch := make([]tokenizer.Token, 0, min(bytes.Count(rest, []byte{','})+1, len(rest)/2))
	prevLen, total := 0, 0
	for more := true; more; {
		var r WireRequest
		var d delta
		start, sawPrompt := len(scratch), false
		err := c.object(wireRequestKeys, func(key string) (err error) {
			at := c.pos
			if key == "prompt" {
				sawPrompt = true
				scratch, err = parseInts(c, scratch, 32)
				return err
			}
			n, err := c.integer(strconv.IntSize)
			if err != nil {
				return err
			}
			switch key {
			case "id":
				r.ID = int(n)
			case "outTokens":
				r.OutTokens = int(n)
			case "shared":
				switch {
				case sawPrompt: // the format fixes the order: a reader learns the run before the tokens that follow it
					return c.errf(at, `"shared" after "prompt"`)
				case n < 0 || n > int64(prevLen):
					return c.errf(at, `"shared" %d outside the previous prompt's %d tokens`, n, prevLen)
				}
				d.shared = int(n)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		d.end = len(scratch)
		prevLen = d.shared + d.end - start
		if total += prevLen; total > MaxWireTokens {
			return nil, c.errf(c.pos, "prompts expand past %d tokens", MaxWireTokens)
		}
		reqs, deltas = append(reqs, r), append(deltas, d)
		if more, err = c.more(']'); err != nil {
			return nil, err
		}
	}
	slab := make([]tokenizer.Token, 0, total)
	var prev []tokenizer.Token
	from := 0
	for i, d := range deltas {
		at := len(slab)
		slab = append(append(slab, prev[:d.shared]...), scratch[from:d.end]...)
		prev, from = slab[at:len(slab):len(slab)], d.end
		reqs[i].Prompt = prev
	}
	return reqs, nil
}

// ClientInfo is the tenant identity a serving layer may attach to the
// context it hands a Backend, so a network backend can attribute the batch
// on the remote side. The zero value means anonymous interactive traffic.
type ClientInfo struct {
	Client string
	Class  string
}

type clientInfoKey struct{}

// WithClientInfo returns ctx carrying the tenant identity for downstream
// backends. The runtime attaches it wherever it attaches its own statement
// accounting, so remote batches are attributed fleet-wide.
func WithClientInfo(ctx context.Context, ci ClientInfo) context.Context {
	return context.WithValue(ctx, clientInfoKey{}, ci)
}

// ClientInfoFrom recovers the tenant identity; the zero ClientInfo when the
// batch runs outside an identity-aware serving layer.
func ClientInfoFrom(ctx context.Context) ClientInfo {
	ci, _ := ctx.Value(clientInfoKey{}).(ClientInfo)
	return ci
}
