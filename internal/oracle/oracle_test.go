package oracle

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/tokenizer"
)

func TestAnswerDeterministic(t *testing.T) {
	for i := uint64(0); i < 50; i++ {
		a := Llama8B.Answer("Movies", i, "Yes", []string{"Yes", "No"}, 0.5)
		b := Llama8B.Answer("Movies", i, "Yes", []string{"Yes", "No"}, 0.5)
		if a != b {
			t.Fatalf("row %d nondeterministic: %q vs %q", i, a, b)
		}
	}
}

func TestAnswerInChoices(t *testing.T) {
	choices := []string{"SUPPORTS", "REFUTES", "NOT ENOUGH INFO"}
	ok := map[string]bool{}
	for _, c := range choices {
		ok[c] = true
	}
	for i := uint64(0); i < 200; i++ {
		got := Llama8B.Answer("FEVER", i, "SUPPORTS", choices, 0.2)
		if !ok[got] {
			t.Fatalf("answer %q not in choices", got)
		}
	}
}

func TestEmpiricalAccuracyNearNominal(t *testing.T) {
	const n = 20000
	correct := 0
	for i := uint64(0); i < n; i++ {
		if Llama8B.Answer("Movies", i, "Yes", []string{"Yes", "No"}, 0.5) == "Yes" {
			correct++
		}
	}
	got := float64(correct) / n
	want := Llama8B.Accuracy("Movies", 0.5)
	if got < want-0.02 || got > want+0.02 {
		t.Errorf("empirical accuracy %.3f, nominal %.3f", got, want)
	}
}

func TestPositionEffectDirection(t *testing.T) {
	// FEVER on 8B: claim later in the prompt => higher accuracy (the paper's
	// +14.2% observation).
	early := Llama8B.Accuracy("FEVER", 0.0)
	late := Llama8B.Accuracy("FEVER", 1.0)
	if late <= early {
		t.Errorf("FEVER position effect inverted: %.3f vs %.3f", early, late)
	}
	if delta := late - early; delta < 0.10 || delta > 0.20 {
		t.Errorf("FEVER swing = %.3f, want ≈ 0.145 (the paper's +14.2%%)", delta)
	}
	// Larger models are less sensitive.
	if s70 := Llama70B.Coef["FEVER"]; s70 >= Llama8B.Coef["FEVER"] {
		t.Errorf("70B FEVER coef %.3f not below 8B %.3f", s70, Llama8B.Coef["FEVER"])
	}
}

func TestAccuracyClamped(t *testing.T) {
	p := Profile{Name: "degenerate", DefaultBase: 2.0, Coef: map[string]float64{"X": -5}}
	if a := p.Accuracy("X", 1.0); a < 0.02 || a > 0.99 {
		t.Errorf("accuracy %f outside clamp", a)
	}
	if a := p.Accuracy("Y", 0.5); a != 0.99 {
		t.Errorf("high base not clamped: %f", a)
	}
}

func TestPositionChangesOnlyMarginalRows(t *testing.T) {
	// The same latent draw decides both positions: rows that are correct at
	// relPos 0 under a positive coefficient must remain correct at relPos 1.
	flippedToWrong := 0
	for i := uint64(0); i < 5000; i++ {
		early := Llama8B.Answer("FEVER", i, "SUPPORTS", []string{"SUPPORTS", "REFUTES"}, 0.0)
		late := Llama8B.Answer("FEVER", i, "SUPPORTS", []string{"SUPPORTS", "REFUTES"}, 1.0)
		if early == "SUPPORTS" && late != "SUPPORTS" {
			flippedToWrong++
		}
	}
	if flippedToWrong != 0 {
		t.Errorf("%d rows flipped against a positive position effect", flippedToWrong)
	}
}

func TestScoreBounds(t *testing.T) {
	for i := uint64(0); i < 500; i++ {
		s := Llama8B.Score("Movies", i, 5, 5, 0.5)
		if s < 1 || s > 5 {
			t.Fatalf("score %d out of bounds", s)
		}
	}
	// A wrong draw on truth=1 must not go below 1.
	for i := uint64(0); i < 500; i++ {
		if s := Llama8B.Score("Movies", i, 1, 5, 0.5); s < 1 {
			t.Fatalf("score %d below 1", s)
		}
	}
}

func TestScoreMeanTracksTruth(t *testing.T) {
	var sum int
	const n = 10000
	for i := uint64(0); i < n; i++ {
		sum += Llama8B.Score("Products", i, 4, 5, 0.5)
	}
	mean := float64(sum) / n
	if mean < 3.7 || mean > 4.3 {
		t.Errorf("score mean %.2f drifted from truth 4", mean)
	}
}

func TestFreeTextBudget(t *testing.T) {
	for _, want := range []int{1, 10, 50, 107} {
		text := FreeText(42, want)
		got := tokenizer.Count(text)
		if got < want-2 || got > want+2 {
			t.Errorf("FreeText(%d) = %d tokens", want, got)
		}
	}
	if FreeText(0, 0) == "" {
		t.Error("zero-budget FreeText should still emit one word")
	}
	if FreeText(1, 20) == FreeText(2, 20) && strings.Count(FreeText(1, 20), " ") > 3 {
		t.Error("different rows produced identical free text")
	}
}

// TestFreeTextPinned: sizing the buffer exactly changed no output byte.
// The strings and the digest over a grid of (row, budget) pairs were
// recorded with the previous, over-reserving builder.
func TestFreeTextPinned(t *testing.T) {
	for _, c := range []struct {
		row    uint64
		tokens int
		want   string
	}{
		{0, 0, "flaws"},
		{42, 1, "clear"},
		{42, 5, "clear the solid brief and"},
		{7, 12, "says and is with brief notes points tone says and a with"},
		{1 << 63, 9, "solid brief and a tone good rating is up"},
	} {
		if got := FreeText(c.row, c.tokens); got != c.want {
			t.Errorf("FreeText(%d, %d) = %q, want %q", c.row, c.tokens, got, c.want)
		}
	}
	h := fnv.New64a()
	for k := uint64(0); k < 200; k++ {
		for n := -1; n < 80; n += 7 {
			h.Write([]byte(FreeText(k*2654435761, n)))
			h.Write([]byte{0})
		}
	}
	if got, want := h.Sum64(), uint64(0xaa3d15ba8f3519af); got != want {
		t.Errorf("FreeText digest %#x, want %#x", got, want)
	}
}

// TestFreeTextSizedExactly: the answer the result cache retains carries no
// slack — building it costs one allocation, of what a buffer of exactly its
// length costs.
func TestFreeTextSizedExactly(t *testing.T) {
	text := FreeText(42, 107)
	got := heapBytesPerRun(func() { freeTextSink = FreeText(42, 107) })
	want := heapBytesPerRun(func() { bytesSink = make([]byte, len(text)) })
	if got > want {
		t.Errorf("FreeText(42, 107) allocates %d B per call, a %d-byte buffer %d B", got, len(text), want)
	}
}

var (
	freeTextSink string
	bytesSink    []byte
)

// heapBytesPerRun is the bytes f allocates per call, averaged over many
// calls, in the quietest of several trials: MemStats.TotalAlloc counts every
// goroutine's allocations, so a trial that overlaps the test binary's own
// background work reads high, never low.
func heapBytesPerRun(f func()) uint64 {
	const runs, trials = 1000, 5
	f()
	least := uint64(math.MaxUint64)
	for trial := 0; trial < trials; trial++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return least
}

func TestAnswerSingleChoiceFallsBack(t *testing.T) {
	got := Llama8B.Answer("Movies", 7, "only", []string{"only"}, 0.5)
	if got != "only" {
		t.Errorf("single-choice answer = %q", got)
	}
}

// sprintHashN is the hash the typed one replaced: every part rendered with
// fmt.Sprint, then FNV-1a with a 0x1f after each part.
func sprintHashN(n uint64, parts ...interface{}) uint64 {
	var h uint64 = 1469598103934665603
	const prime = 1099511628211
	mix := func(b byte) { h ^= uint64(b); h *= prime }
	for _, p := range parts {
		for _, b := range []byte(fmt.Sprint(p)) {
			mix(b)
		}
		mix(0x1f)
	}
	if n == 0 {
		return 0
	}
	return h % n
}

func sprintHash01(parts ...interface{}) float64 {
	return float64(sprintHashN(1<<52, parts...)) / float64(uint64(1)<<52)
}

// sprintAnswer and sprintScore are Answer and Score as they were over
// sprintHashN, the wrong choice picked from a built slice.
func sprintAnswer(p Profile, dataset string, rowKey uint64, truth string, choices []string, relPos float64) string {
	if sprintHash01(p.Name, dataset, rowKey, "answer") < p.Accuracy(dataset, relPos) {
		return truth
	}
	var wrong []string
	for _, c := range choices {
		if c != truth {
			wrong = append(wrong, c)
		}
	}
	if len(wrong) == 0 {
		return truth
	}
	return wrong[sprintHashN(uint64(len(wrong)), p.Name, dataset, rowKey, "wrong")]
}

func sprintScore(p Profile, dataset string, rowKey uint64, truth, maxScore int, relPos float64) int {
	if sprintHash01(p.Name, dataset, rowKey, "score") < p.Accuracy(dataset, relPos) {
		return clampScore(truth, maxScore)
	}
	if sprintHashN(2, p.Name, dataset, rowKey, "dir") == 0 {
		return clampScore(truth-1, maxScore)
	}
	return clampScore(truth+1, maxScore)
}

// TestTypedHashMatchesSprintReference: the typed hash hashes exactly the
// bytes the fmt.Sprint rendering did, so every answer, score and draw is
// unchanged — over random names, datasets, row keys and label sets.
func TestTypedHashMatchesSprintReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	words := []string{"", "Movies", "FEVER", "llama-3-8b", "日本語", "a\x1fb", "Yes", "No", "SUPPORTS", "REFUTES", "NOT ENOUGH INFO", "0", "18446744073709551615"}
	word := func() string {
		if r.Intn(5) == 0 {
			b := make([]byte, r.Intn(12))
			r.Read(b)
			return string(b)
		}
		return words[r.Intn(len(words))]
	}
	keys := []uint64{0, 1, 9, 10, 99, math.MaxUint32, math.MaxUint64}
	for i := 0; i < 5000; i++ {
		key := r.Uint64() >> uint(r.Intn(64))
		if i < len(keys) {
			key = keys[i]
		}
		p := Profile{Name: word(), DefaultBase: r.Float64(), Coef: map[string]float64{}}
		dataset, tag := word(), word()
		p.Coef[dataset] = r.Float64() - 0.5
		if got, want := hash01(p.Name, dataset, key, tag), sprintHash01(p.Name, dataset, key, tag); got != want {
			t.Fatalf("hash01(%q, %q, %d, %q) = %v, fmt.Sprint reference %v", p.Name, dataset, key, tag, got, want)
		}
		choices := make([]string, r.Intn(5))
		for j := range choices {
			choices[j] = word()
		}
		truth := word()
		if len(choices) > 0 && r.Intn(2) == 0 {
			truth = choices[r.Intn(len(choices))]
		}
		relPos := r.Float64()
		if got, want := p.Answer(dataset, key, truth, choices, relPos), sprintAnswer(p, dataset, key, truth, choices, relPos); got != want {
			t.Fatalf("Answer(%q, %d, %q, %q) = %q, reference %q", dataset, key, truth, choices, got, want)
		}
		truthScore, maxScore := r.Intn(7), 1+r.Intn(5)
		if got, want := p.Score(dataset, key, truthScore, maxScore, relPos), sprintScore(p, dataset, key, truthScore, maxScore, relPos); got != want {
			t.Fatalf("Score(%q, %d, %d, %d) = %d, reference %d", dataset, key, truthScore, maxScore, got, want)
		}
	}
}

func TestAnswerAndScoreDoNotAllocate(t *testing.T) {
	choices := []string{"SUPPORTS", "REFUTES", "NOT ENOUGH INFO"}
	if n := testing.AllocsPerRun(100, func() {
		for key := uint64(0); key < 20; key++ {
			Llama8B.Answer("FEVER", key, "SUPPORTS", choices, 0.3)
			Llama8B.Score("Movies", key, 3, 5, 0.7)
		}
	}); n != 0 {
		t.Errorf("Answer and Score allocate %v times per 20 rows", n)
	}
}
