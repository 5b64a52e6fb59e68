// Package stats is the repository's one sliding window and one quantile.
package stats

import "iter"

// Window keeps the most recent capacity values added to it. It grows by
// append until full — an owner that sees three values pays for three — and
// from then on overwrites the oldest in place, so a full window never
// allocates. Not safe for concurrent use: each owner guards it with its mutex.
type Window[T any] struct {
	buf      []T
	next     int // once full: the oldest value, the slot the next Add takes
	capacity int
}

// NewWindow returns an empty window of the given capacity (minimum 1).
func NewWindow[T any](capacity int) Window[T] {
	return Window[T]{capacity: max(capacity, 1)}
}

// Add records v, displacing the oldest value once the window is full.
func (w *Window[T]) Add(v T) {
	if len(w.buf) < w.capacity {
		w.buf = append(w.buf, v)
		return
	}
	w.buf[w.next] = v
	w.next = (w.next + 1) % w.capacity
}

// Len reports how many values the window holds.
func (w *Window[T]) Len() int { return len(w.buf) }

// Reset empties the window, keeping its storage.
func (w *Window[T]) Reset() {
	clear(w.buf)
	w.buf, w.next = w.buf[:0], 0
}

// All iterates the held values, newest first.
func (w *Window[T]) All() iter.Seq[T] {
	return func(yield func(T) bool) {
		for i, n := 1, len(w.buf); i <= n; i++ {
			if !yield(w.buf[(w.next-i+n)%n]) {
				return
			}
		}
	}
}

// Quantile returns the p-quantile (0 < p <= 1) of an ascending slice by
// nearest rank, ceil(p·n) — with slack, so float noise in p·n (0.05·10000 =
// 500.00000000000006) cannot bump the rank — and the zero value when empty.
func Quantile[T any](sorted []T, p float64) (q T) {
	if len(sorted) == 0 {
		return q
	}
	rank := int(p*float64(len(sorted)) + 0.999999)
	return sorted[min(max(rank, 1), len(sorted))-1]
}
