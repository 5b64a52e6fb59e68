// Package tokenizer implements a deterministic subword tokenizer used by the
// serving simulator and the reordering benchmarks.
//
// The real system tokenizes prompts with the Llama-3 BPE tokenizer before
// they reach the KV cache. For reproducing the paper's experiments the exact
// merge table is irrelevant; what matters is that the mapping from text to
// tokens is (a) deterministic, (b) prefix-stable — two texts that share a
// prefix ending at a word boundary produce token streams that share the
// corresponding prefix — and (c) has a realistic compression ratio (roughly
// four characters per token on English-like text). This tokenizer provides
// all three with a greedy word/piece splitter and an online-interned
// vocabulary.
package tokenizer

import (
	"strings"
	"sync"
)

// Token is a vocabulary identifier. IDs are assigned in order of first
// appearance, so a tokenizer fed the same inputs in the same order always
// produces the same IDs.
type Token int32

// maxPiece is the longest surface string a single token may cover. Words
// longer than maxPiece are split into maxPiece-sized chunks, mimicking how
// BPE fragments rare long words.
const maxPiece = 7

// chunk is the piece size used when fragmenting long words.
const chunk = 4

// Tokenizer converts text to token IDs and back. It is safe for concurrent
// use. The zero value is not usable; call New.
type Tokenizer struct {
	mu     sync.RWMutex
	ids    map[uint64]Token // by pieceKey; guarded by mu
	pieces []string         // guarded by mu
}

// New returns an empty tokenizer. Vocabulary entries are created on demand
// as texts are encoded.
func New() *Tokenizer {
	return &Tokenizer{ids: make(map[uint64]Token, 4096)}
}

// VocabSize reports how many distinct pieces have been interned so far.
func (t *Tokenizer) VocabSize() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.pieces)
}

// Encode converts text into a sequence of tokens. Concatenating the decoded
// pieces reproduces the input exactly.
func (t *Tokenizer) Encode(text string) []Token {
	return t.AppendEncode(make([]Token, 0, Count(text)), text)
}

// AppendEncode appends text's tokens to dst and returns the extended slice.
// It segments and interns in one pass over text, so encoding allocates only
// when dst grows or the vocabulary does.
func (t *Tokenizer) AppendEncode(dst []Token, text string) []Token {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := 0; i < len(text); {
		end := segmentEnd(text, i)
		if end-i <= maxPiece {
			dst = append(dst, t.internLocked(text[i:end]))
			i = end
			continue
		}
		// Fragment long segments into fixed-size chunks. The first chunk
		// keeps any leading space so decode remains exact.
		for ; i < end; i += chunk {
			dst = append(dst, t.internLocked(text[i:min(i+chunk, end)]))
		}
		i = end
	}
	return dst
}

// internLocked returns the piece's id, assigning the next one on first
// sight.
func (t *Tokenizer) internLocked(p string) Token {
	key := pieceKey(p)
	id, ok := t.ids[key]
	if !ok {
		id = Token(len(t.pieces))
		t.ids[key] = id
		t.pieces = append(t.pieces, p)
	}
	return id
}

// pieceKey packs a piece — at most maxPiece = 7 bytes, whichever way
// AppendEncode cut it — and its length into one word, so the vocabulary is
// keyed by an integer instead of hashing a string per token.
func pieceKey(p string) uint64 {
	key := uint64(len(p)) << 56
	for i := 0; i < len(p); i++ {
		key |= uint64(p[i]) << (8 * i)
	}
	return key
}

// Decode reconstructs the text for a token sequence produced by Encode on
// this tokenizer. Unknown IDs decode to the empty string.
func (t *Tokenizer) Decode(tokens []Token) string {
	var sb strings.Builder
	t.mu.RLock()
	for _, id := range tokens {
		if int(id) >= 0 && int(id) < len(t.pieces) {
			sb.WriteString(t.pieces[int(id)])
		}
	}
	t.mu.RUnlock()
	return sb.String()
}

// Count reports the number of tokens Encode would produce for text. It is a
// pure function of the text and needs no tokenizer state — the hot path for
// PHC length computations.
func Count(text string) int {
	n := 0
	for i := 0; i < len(text); {
		end := segmentEnd(text, i)
		n += piecesFor(end - i)
		i = end
	}
	return n
}

// Split breaks text into surface pieces, one per token. Exported for tests
// and for tools that need piece boundaries.
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

// piecesFor reports how many tokens a segment of segLen bytes becomes.
func piecesFor(segLen int) int {
	if segLen <= maxPiece {
		return 1
	}
	return (segLen + chunk - 1) / chunk
}

// segmentEnd returns the end of the segment that starts at text[i]. A segment
// is a maximal run of letters/digits, optionally with one leading space, or
// a single non-alphanumeric byte. Segmentation depends only on the bytes to
// the left of each boundary, which is what makes the tokenizer
// prefix-stable.
func segmentEnd(text string, i int) int {
	n := len(text)
	// A single leading space attaches to the following word, mirroring the
	// "Ġ"-prefixed pieces of GPT-style vocabularies.
	if text[i] == ' ' {
		i++
		if i >= n || !wordByte[text[i]] {
			return i
		}
	}
	if !wordByte[text[i]] {
		return i + 1 // punctuation and control bytes are one token each
	}
	for i < n && wordByte[text[i]] {
		i++
	}
	return i
}

// wordByte marks the bytes that continue a word: ASCII letters, digits and
// '_', plus every byte of a multi-byte UTF-8 sequence (treated uniformly as
// word material; the synthetic corpora are ASCII so that is rarely taken).
var wordByte = func() (w [256]bool) {
	for b := range w {
		w[b] = b >= 0x80 || b == '_' ||
			'0' <= b && b <= '9' || 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z'
	}
	return w
}()
