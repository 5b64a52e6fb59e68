// Package vecdb provides deterministic text embeddings and an exact
// k-nearest-neighbor index. It stands in for the paper's
// gte-base-en-v1.5 + FAISS retrieval stack (Sec. 6.1.3): the experiments
// only require that questions about the same topic retrieve overlapping
// context sets, which bag-of-words feature hashing with cosine similarity
// delivers without model weights.
package vecdb

import (
	"container/heap"
	"fmt"
	"math"
	"strings"
	"unicode"
)

// Embedder maps text to a fixed-dimension vector via signed feature hashing
// of its words. Embeddings are L2-normalized so dot product equals cosine
// similarity. The zero value is unusable; call NewEmbedder.
type Embedder struct {
	dim int
}

// NewEmbedder returns an embedder with the given dimensionality (256 when
// dim <= 0).
func NewEmbedder(dim int) *Embedder {
	if dim <= 0 {
		dim = 256
	}
	return &Embedder{dim: dim}
}

// Embed returns the normalized embedding of text. Empty or wordless text
// embeds to the zero vector.
func (e *Embedder) Embed(text string) []float32 {
	v := make([]float32, e.dim)
	for _, w := range splitWords(text) {
		h := fnv64(w)
		bucket := int(h % uint64(e.dim))
		sign := float32(1)
		if (h>>32)&1 == 1 {
			sign = -1
		}
		v[bucket] += sign
	}
	var norm float64
	for _, x := range v {
		norm += float64(x) * float64(x)
	}
	if norm > 0 {
		inv := float32(1 / math.Sqrt(norm))
		for i := range v {
			v[i] *= inv
		}
	}
	return v
}

// Result is one retrieval hit.
type Result struct {
	ID    int
	Score float32
}

// Index is an exact (flat) KNN index over embedded documents.
type Index struct {
	emb  *Embedder
	vecs [][]float32
}

// NewIndex returns an empty index using the given embedder.
func NewIndex(emb *Embedder) *Index {
	return &Index{emb: emb}
}

// Add embeds and stores a document; its ID is its insertion position.
func (ix *Index) Add(text string) int {
	ix.vecs = append(ix.vecs, ix.emb.Embed(text))
	return len(ix.vecs) - 1
}

// AddAll embeds a batch of documents in order.
func (ix *Index) AddAll(texts []string) {
	for _, t := range texts {
		ix.Add(t)
	}
}

// Len reports the number of indexed documents.
func (ix *Index) Len() int { return len(ix.vecs) }

// Search returns the k nearest documents to the query by cosine similarity,
// best first, ties broken by ascending ID for determinism.
func (ix *Index) Search(query string, k int) ([]Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("vecdb: k must be positive, got %d", k)
	}
	if len(ix.vecs) == 0 {
		return nil, fmt.Errorf("vecdb: search on empty index")
	}
	if k > len(ix.vecs) {
		k = len(ix.vecs)
	}
	q := ix.emb.Embed(query)
	// A query has a few non-zero buckets of its dimensions. A zero bucket's
	// product adds a signed zero, which leaves a sum that starts at +0 bit
	// for bit unchanged, so summing the non-zero ones in ascending order is
	// the dense dot product exactly.
	var nz []int
	for i, x := range q {
		if x != 0 {
			nz = append(nz, i)
		}
	}
	// Min-heap of size k over (score, -id): the root is the weakest kept hit.
	h := make(resultHeap, 0, k)
	for id, v := range ix.vecs {
		var dot float32
		for _, i := range nz {
			dot += q[i] * v[i]
		}
		r := Result{ID: id, Score: dot}
		if len(h) < k {
			heap.Push(&h, r)
			continue
		}
		if better(r, h[0]) {
			h[0] = r
			heap.Fix(&h, 0)
		}
	}
	out := make([]Result, len(h))
	for i := len(h) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(Result)
	}
	return out, nil
}

// better reports whether a should outrank b in the final ordering.
func better(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// resultHeap keeps the k best results; the root is the worst of them.
type resultHeap []Result

func (h resultHeap) Len() int            { return len(h) }
func (h resultHeap) Less(i, j int) bool  { return better(h[j], h[i]) }
func (h resultHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x interface{}) { *h = append(*h, x.(Result)) }
func (h *resultHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func splitWords(text string) []string {
	return strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

func fnv64(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
