// Package lru is the repository's one bounded recency map.
package lru

import "iter"

// Map holds at most capacity key→value pairs, threaded on an intrusive ring
// in recency order (Get and Put both count as use): lookup, insert and
// eviction are O(1), a hit allocates nothing and an insert one entry — none
// once the map is full, because the evicted entry is reused. A Map is not
// safe for concurrent use; each owner guards it with its own mutex.
type Map[K comparable, V any] struct {
	capacity int
	entries  map[K]*entry[K, V]
	root     entry[K, V] // ring sentinel: next is the most recent entry, prev the least
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V]
}

// New returns an empty map bounded to capacity entries (minimum 1).
func New[K comparable, V any](capacity int) *Map[K, V] {
	m := &Map[K, V]{capacity: max(capacity, 1), entries: make(map[K]*entry[K, V])}
	m.root.prev, m.root.next = &m.root, &m.root
	return m
}

// Get returns the value stored under k and marks it most recently used.
func (m *Map[K, V]) Get(k K) (v V, ok bool) {
	e, ok := m.entries[k]
	if ok {
		m.moveToFront(e)
		v = e.val
	}
	return v, ok
}

// Put stores v under k as the most recently used entry, replacing any value
// already there; a new key arriving at a full map evicts the least recently
// used one.
func (m *Map[K, V]) Put(k K, v V) {
	e, ok := m.entries[k]
	if !ok {
		if len(m.entries) < m.capacity {
			e = new(entry[K, V])
			e.prev, e.next = e, e
		} else {
			e = m.root.prev
			delete(m.entries, e.key)
		}
		e.key = k
		m.entries[k] = e
	}
	e.val = v
	m.moveToFront(e)
}

// Len reports the number of entries.
func (m *Map[K, V]) Len() int { return len(m.entries) }

// All iterates from most to least recently used without refreshing anything.
// The map must not be modified during the iteration.
func (m *Map[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		for e := m.root.next; e != &m.root && yield(e.key, e.val); e = e.next {
		}
	}
}

func (m *Map[K, V]) moveToFront(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = &m.root, m.root.next
	e.prev.next, e.next.prev = e, e
}
