package vecdb

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestEmbedNormalized(t *testing.T) {
	e := NewEmbedder(64)
	v := e.Embed("some words about beer and movies")
	var norm float64
	for _, x := range v {
		norm += float64(x) * float64(x)
	}
	if math.Abs(norm-1) > 1e-5 {
		t.Errorf("norm² = %f, want 1", norm)
	}
}

func TestEmbedEmptyIsZero(t *testing.T) {
	e := NewEmbedder(16)
	for _, txt := range []string{"", "!!! ...", "   "} {
		for i, x := range e.Embed(txt) {
			if x != 0 {
				t.Errorf("Embed(%q)[%d] = %f", txt, i, x)
			}
		}
	}
}

func TestEmbedDeterministic(t *testing.T) {
	e1, e2 := NewEmbedder(128), NewEmbedder(128)
	a, b := e1.Embed("hello world"), e2.Embed("hello world")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("dim %d differs", i)
		}
	}
}

func TestEmbedCaseInsensitive(t *testing.T) {
	e := NewEmbedder(64)
	a, b := e.Embed("Hello World"), e.Embed("hello world")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("case changed embedding")
		}
	}
}

func TestSearchFindsRelated(t *testing.T) {
	e := NewEmbedder(256)
	ix := NewIndex(e)
	ix.AddAll([]string{
		"quantum computing with superconducting qubits and error correction",
		"baking sourdough bread with wild yeast starter",
		"qubits decoherence and quantum error correction research",
		"gardening tips for tomato plants in summer",
	})
	res, err := ix.Search("quantum qubits error correction", 2)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]bool{res[0].ID: true, res[1].ID: true}
	if !got[0] || !got[2] {
		t.Errorf("top-2 = %v, want docs 0 and 2", res)
	}
	if res[0].Score < res[1].Score {
		t.Error("results not sorted by score")
	}
}

func TestSearchSelfRetrieval(t *testing.T) {
	e := NewEmbedder(256)
	ix := NewIndex(e)
	docs := []string{
		"alpha beta gamma delta", "epsilon zeta eta theta",
		"iota kappa lambda mu", "nu xi omicron pi",
	}
	ix.AddAll(docs)
	for i, d := range docs {
		res, err := ix.Search(d, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res[0].ID != i {
			t.Errorf("doc %d: self-retrieval found %d", i, res[0].ID)
		}
	}
}

func TestSearchKClamping(t *testing.T) {
	ix := NewIndex(NewEmbedder(32))
	ix.AddAll([]string{"one thing", "two things"})
	res, err := ix.Search("thing", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Errorf("len = %d, want clamped 2", len(res))
	}
}

func TestSearchErrors(t *testing.T) {
	ix := NewIndex(NewEmbedder(32))
	if _, err := ix.Search("anything", 1); err == nil {
		t.Error("search on empty index succeeded")
	}
	ix.Add("doc")
	if _, err := ix.Search("anything", 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestSearchDeterministicTies(t *testing.T) {
	ix := NewIndex(NewEmbedder(64))
	// Identical documents: scores tie exactly; IDs must come back ascending.
	ix.AddAll([]string{"same text", "same text", "same text", "other words entirely"})
	res, err := ix.Search("same text", 3)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].ID != 0 || res[1].ID != 1 || res[2].ID != 2 {
		t.Errorf("tie order = %v", res)
	}
}

func TestSearchTopKMatchesFullSort(t *testing.T) {
	// Property: heap-based top-k equals the k best of a full scan.
	e := NewEmbedder(64)
	ix := NewIndex(e)
	docs := []string{
		"red green blue", "green blue yellow", "blue yellow red",
		"alpha beta", "beta gamma", "gamma alpha", "red alpha",
		"unrelated words here", "more filler text", "red red red",
	}
	ix.AddAll(docs)
	f := func(qSeed uint8, kRaw uint8) bool {
		q := docs[int(qSeed)%len(docs)]
		k := 1 + int(kRaw)%len(docs)
		res, err := ix.Search(q, k)
		if err != nil {
			return false
		}
		// Verify ordering and that no skipped doc beats the kept worst.
		for i := 1; i < len(res); i++ {
			if better(res[i], res[i-1]) {
				return false
			}
		}
		kept := map[int]bool{}
		for _, r := range res {
			kept[r.ID] = true
		}
		worst := res[len(res)-1]
		qv := e.Embed(q)
		for id := range docs {
			if kept[id] {
				continue
			}
			var dot float32
			dv := e.Embed(docs[id])
			for i := range qv {
				dot += qv[i] * dv[i]
			}
			if better(Result{ID: id, Score: dot}, worst) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDefaultDim(t *testing.T) {
	if NewEmbedder(0).Dim() != 256 {
		t.Error("default dim not applied")
	}
}

// TestSearchMatchesDenseDot: Search's sparse dot product over the query's
// non-zero buckets gives every document the score of the dense loop over all
// dimensions bit for bit, so the top k — ids, order and scores — equal a
// dense full-scan reference. Corpora are random; queries include empty and
// wordless text, and words whose hashed signs cancel or sum negative.
func TestSearchMatchesDenseDot(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	vocab := []string{"alpha", "beta", "gamma", "delta", "red", "blue", "qubit", "yeast", "tomato", "über", "x1", "2024"}
	text := func() string {
		words := make([]string, r.Intn(8))
		for i := range words {
			words[i] = vocab[r.Intn(len(vocab))]
		}
		return strings.Join(words, " ")
	}
	negative := 0 // queries with a negative bucket
	for trial := 0; trial < 200; trial++ {
		e := NewEmbedder([]int{8, 64, 256}[r.Intn(3)])
		ix := NewIndex(e)
		for n := 1 + r.Intn(40); n > 0; n-- {
			ix.Add(text())
		}
		for _, query := range []string{text(), text(), "", "!!! ...", "red red red blue"} {
			k := 1 + r.Intn(ix.Len())
			got, err := ix.Search(query, k)
			if err != nil {
				t.Fatal(err)
			}
			q := e.Embed(query)
			if slices.ContainsFunc(q, func(x float32) bool { return x < 0 }) {
				negative++
			}
			want := make([]Result, ix.Len())
			for id, v := range ix.vecs {
				var dot float32
				for i := range q {
					dot += q[i] * v[i]
				}
				want[id] = Result{ID: id, Score: dot}
			}
			sort.Slice(want, func(a, b int) bool { return better(want[a], want[b]) })
			want = want[:k]
			for i := range want {
				if got[i].ID != want[i].ID || math.Float32bits(got[i].Score) != math.Float32bits(want[i].Score) {
					t.Fatalf("trial %d, query %q, k %d: result %d = %+v, dense reference %+v", trial, query, k, i, got[i], want[i])
				}
			}
		}
	}
	if negative == 0 {
		t.Error("no query had a negative bucket")
	}
}

// Dim reports the embedding dimensionality.
func (e *Embedder) Dim() int { return e.dim }
