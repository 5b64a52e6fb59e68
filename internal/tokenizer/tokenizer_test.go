package tokenizer

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tok := New()
	cases := []string{
		"",
		"hello",
		"hello world",
		"Summarize: the movie was great, 5/5!",
		"  leading and   multiple spaces",
		"punctuation!?.,;:'\"()[]{}",
		"a_very_long_identifier_with_underscores",
		"short a b c",
		strings.Repeat("long-word-sequence ", 40),
		"{\"field\": \"value\", \"n\": 42}",
	}
	for _, c := range cases {
		got := tok.Decode(tok.Encode(c))
		if got != c {
			t.Errorf("round trip mismatch:\n in  %q\n out %q", c, got)
		}
	}
}

func TestEncodeDeterministicIDs(t *testing.T) {
	a, b := New(), New()
	texts := []string{"alpha beta gamma", "beta gamma delta", "alpha beta"}
	for _, txt := range texts {
		ta := a.Encode(txt)
		tb := b.Encode(txt)
		if len(ta) != len(tb) {
			t.Fatalf("length mismatch for %q: %d vs %d", txt, len(ta), len(tb))
		}
		for i := range ta {
			if ta[i] != tb[i] {
				t.Fatalf("token %d differs for %q: %d vs %d", i, txt, ta[i], tb[i])
			}
		}
	}
}

func TestPrefixStability(t *testing.T) {
	// Two prompts that share a text prefix must share the token prefix that
	// covers it (the last shared token may merge with the divergent suffix,
	// exactly as in real BPE, so we check up to len(p)-1).
	tok := New()
	prefix := "The movie info field describes a long plot. "
	a := tok.Encode(prefix + "Review one says it was fine.")
	b := tok.Encode(prefix + "Another opinion entirely, quite different text.")
	p := tok.Encode(prefix)
	if len(a) < len(p) || len(b) < len(p) {
		t.Fatalf("encoded prefix longer than full text: %d, %d vs %d", len(a), len(b), len(p))
	}
	shared := len(p) - 1
	for i := 0; i < shared; i++ {
		if a[i] != p[i] {
			t.Fatalf("text a diverges from prefix at token %d", i)
		}
		if a[i] != b[i] {
			t.Fatalf("texts a and b diverge inside shared prefix at token %d", i)
		}
	}
	// When the prefix ends at a hard boundary (punctuation), the whole
	// prefix tokenization is shared.
	hard := "System prompt: answer the query."
	ha := tok.Encode(hard + " data one")
	hp := tok.Encode(hard)
	for i := range hp {
		if ha[i] != hp[i] {
			t.Fatalf("hard-boundary prefix diverges at token %d", i)
		}
	}
}

func TestCountMatchesEncode(t *testing.T) {
	tok := New()
	cases := []string{
		"", "one", "one two three", "a, b, c!", strings.Repeat("x", 100),
		"internationalization acceleration", "42 1234567890",
	}
	for _, c := range cases {
		if got, want := Count(c), len(tok.Encode(c)); got != want {
			t.Errorf("Count(%q) = %d, Encode len = %d", c, got, want)
		}
	}
}

func TestCountQuickMatchesEncode(t *testing.T) {
	tok := New()
	f := func(s string) bool {
		return Count(s) == len(tok.Encode(s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRoundTripQuick(t *testing.T) {
	tok := New()
	f := func(s string) bool {
		return tok.Decode(tok.Encode(s)) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestAppendEncodeMatchesSplit pins the one-pass encoder to the piece
// splitter: appending onto a non-empty dst yields, per piece of Split, the id
// a piece-by-piece interning assigns — new ids in first-appearance order.
func TestAppendEncodeMatchesSplit(t *testing.T) {
	f := func(head, s string) bool {
		tok, ref := New(), map[string]Token{}
		intern := func(p string) Token {
			id, ok := ref[p]
			if !ok {
				id = Token(len(ref))
				ref[p] = id
			}
			return id
		}
		var want []Token
		for _, text := range []string{head, s, "  a_longer_word, {\"k\": \"v \"}  "} {
			for _, p := range Split(text) {
				want = append(want, intern(p))
			}
		}
		got := tok.AppendEncode(nil, head)
		got = tok.AppendEncode(got, s)
		got = tok.AppendEncode(got, "  a_longer_word, {\"k\": \"v \"}  ")
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCompressionRatio(t *testing.T) {
	text := "The reordering algorithm maximizes the number of shared prefix " +
		"tokens across consecutive requests in a relational analytics workload. " +
		"Functional dependencies reduce the search space considerably."
	n := Count(text)
	ratio := float64(len(text)) / float64(n)
	if ratio < 3.0 || ratio > 8.0 {
		t.Errorf("chars per token = %.2f, want a realistic 3..8", ratio)
	}
}

func TestLongWordFragmentation(t *testing.T) {
	// 16-byte word: > maxPiece so it is chunked into 4-byte pieces.
	if got := Count("abcdefghijklmnop"); got != 4 {
		t.Errorf("16-byte word = %d tokens, want 4", got)
	}
	// 7-byte word fits in a single piece.
	if got := Count("abcdefg"); got != 1 {
		t.Errorf("7-byte word = %d tokens, want 1", got)
	}
	// 8-byte word becomes two chunks.
	if got := Count("abcdefgh"); got != 2 {
		t.Errorf("8-byte word = %d tokens, want 2", got)
	}
}

func TestVocabGrowth(t *testing.T) {
	tok := New()
	tok.Encode("alpha beta")
	n := tok.VocabSize()
	if n == 0 {
		t.Fatal("vocab empty after encode")
	}
	tok.Encode("alpha beta") // no new pieces
	if tok.VocabSize() != n {
		t.Errorf("vocab grew on repeated encode: %d -> %d", n, tok.VocabSize())
	}
	tok.Encode("gamma")
	if tok.VocabSize() <= n {
		t.Errorf("vocab did not grow on new word")
	}
}

func TestDecodeUnknownIDs(t *testing.T) {
	tok := New()
	if got := tok.Decode([]Token{999, -1}); got != "" {
		t.Errorf("decoding unknown ids = %q, want empty", got)
	}
}

func BenchmarkEncode(b *testing.B) {
	tok := New()
	text := strings.Repeat("the quick brown fox jumps over the lazy dog ", 20)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tok.Encode(text)
	}
}

func BenchmarkCount(b *testing.B) {
	text := strings.Repeat("the quick brown fox jumps over the lazy dog ", 20)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Count(text)
	}
}

// TestPieceKeyTellsPiecesApart: the packed vocabulary key separates pieces
// that differ only in length or in NUL bytes, so they keep distinct ids and
// still decode exactly.
func TestPieceKeyTellsPiecesApart(t *testing.T) {
	pieces := []string{"", "a", "a\x00", "\x00a", "\x00", "\x00\x00", "abcdefg", "abcdef\x00", "\xff\xff\xff\xff\xff\xff\xff", " a", "a "}
	seen := map[uint64]string{}
	for _, p := range pieces {
		if len(p) > maxPiece {
			t.Fatalf("%q is longer than a piece", p)
		}
		if q, dup := seen[pieceKey(p)]; dup {
			t.Errorf("%q and %q share key %#x", p, q, pieceKey(p))
		}
		seen[pieceKey(p)] = p
	}
	tok := New()
	text := "a\x00\x00b\x00 a\x00c a"
	if got := tok.Decode(tok.Encode(text)); got != text {
		t.Errorf("round trip of %q gave %q", text, got)
	}
}

// TestVocabularyMatchesMapReference holds the open-addressing vocabulary to
// a map from piece to id, assigned in first-sight order: ids, VocabSize and
// Decode agree after every text, across several doublings of the table.
func TestVocabularyMatchesMapReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_ .,:\"{}\x00\x1f\xc3\xa9"
	tok := New()
	ref := map[string]Token{}
	var refPieces []string
	for i := 0; len(refPieces) < 9<<initialSlotsLog2; i++ {
		b := make([]byte, 1+r.Intn(60))
		for j := range b {
			b[j] = alphabet[r.Intn(len(alphabet))]
		}
		text := string(b)
		var want []Token
		for _, p := range Split(text) {
			id, ok := ref[p]
			if !ok {
				id = Token(len(refPieces))
				ref[p] = id
				refPieces = append(refPieces, p)
			}
			want = append(want, id)
		}
		got := tok.AppendEncode(nil, text)
		if !slices.Equal(got, want) {
			t.Fatalf("text %d %q: ids %v, map reference %v", i, text, got, want)
		}
		if tok.VocabSize() != len(refPieces) {
			t.Fatalf("text %d: VocabSize %d, map reference %d", i, tok.VocabSize(), len(refPieces))
		}
		if got := tok.Decode(got); got != text {
			t.Fatalf("text %d: Decode gave %q, want %q", i, got, text)
		}
	}
	for id, p := range refPieces {
		if got := tok.Decode([]Token{Token(id)}); got != p {
			t.Fatalf("id %d decodes to %q, map reference %q", id, got, p)
		}
	}
}

// VocabSize reports how many distinct pieces have been interned so far.
func (t *Tokenizer) VocabSize() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.keys)
}

// Decode reconstructs the text for a token sequence produced by Encode on
// this tokenizer. Unknown IDs decode to the empty string.
func (t *Tokenizer) Decode(tokens []Token) string {
	var sb strings.Builder
	t.mu.RLock()
	for _, id := range tokens {
		if int(id) >= 0 && int(id) < len(t.keys) {
			key := t.keys[id]
			for i := 0; i < int(key>>56); i++ {
				sb.WriteByte(byte(key >> (8 * i)))
			}
		}
	}
	t.mu.RUnlock()
	return sb.String()
}

// Split breaks text into surface pieces, one per token.
func Split(text string) []string {
	var out []string
	for i := 0; i < len(text); {
		end := segmentEnd(text, i)
		if end-i <= maxPiece {
			out = append(out, text[i:end])
			i = end
			continue
		}
		for ; i < end; i += chunk {
			out = append(out, text[i:min(i+chunk, end)])
		}
		i = end
	}
	return out
}
