package lru

import (
	"math/rand"
	"testing"
)

// model is the naive reference: a slice in recency order, most recent first.
type model struct {
	capacity int
	keys     []int
	vals     []int
}

func (m *model) find(k int) int {
	for i, mk := range m.keys {
		if mk == k {
			return i
		}
	}
	return -1
}

func (m *model) remove(i int) {
	m.keys = append(m.keys[:i], m.keys[i+1:]...)
	m.vals = append(m.vals[:i], m.vals[i+1:]...)
}

func (m *model) pushFront(k, v int) {
	m.keys = append([]int{k}, m.keys...)
	m.vals = append([]int{v}, m.vals...)
}

func (m *model) get(k int) (int, bool) {
	i := m.find(k)
	if i < 0 {
		return 0, false
	}
	v := m.vals[i]
	m.remove(i)
	m.pushFront(k, v)
	return v, true
}

func (m *model) put(k, v int) {
	if i := m.find(k); i >= 0 {
		m.remove(i)
	} else if len(m.keys) >= m.capacity {
		m.remove(len(m.keys) - 1)
	}
	m.pushFront(k, v)
}

// TestDifferential drives Map and the slice model with the same random
// get/put stream (keys drawn from a range a bit wider than the capacity, so
// hits, overwrites and evictions all occur) and compares every answer, the
// length and the full recency order after every operation.
func TestDifferential(t *testing.T) {
	for _, capacity := range []int{1, 2, 64} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			m := New[int, int](capacity)
			ref := &model{capacity: capacity}
			for op := 0; op < 10_000; op++ {
				k := rng.Intn(capacity*3/2 + 2)
				if rng.Intn(2) == 0 {
					got, ok := m.Get(k)
					want, wantOK := ref.get(k)
					if got != want || ok != wantOK {
						t.Fatalf("cap %d seed %d op %d: Get(%d) = %d,%v, model %d,%v", capacity, seed, op, k, got, ok, want, wantOK)
					}
				} else {
					m.Put(k, op)
					ref.put(k, op)
				}
				if m.Len() != len(ref.keys) {
					t.Fatalf("cap %d seed %d op %d: Len %d, model %d", capacity, seed, op, m.Len(), len(ref.keys))
				}
				i := 0
				for k, v := range m.All() {
					if i >= len(ref.keys) || k != ref.keys[i] || v != ref.vals[i] {
						t.Fatalf("cap %d seed %d op %d: entry %d is %d=%d, model order %v", capacity, seed, op, i, k, v, ref.keys)
					}
					i++
				}
				if i != len(ref.keys) {
					t.Fatalf("cap %d seed %d op %d: All yielded %d entries, model has %d", capacity, seed, op, i, len(ref.keys))
				}
			}
		}
	}
}

// TestCapacityFloor: a non-positive capacity still holds one entry.
func TestCapacityFloor(t *testing.T) {
	m := New[string, int](0)
	m.Put("a", 1)
	m.Put("b", 2)
	if _, ok := m.Get("a"); ok || m.Len() != 1 {
		t.Errorf("capacity 0 map holds %d entries (a present: %v), want just b", m.Len(), ok)
	}
}

// TestAllocs pins the intrusive layout: a hit allocates nothing, an insert
// one entry, and an insert into a full map reuses the evicted entry.
func TestAllocs(t *testing.T) {
	const n = 1024
	m := New[int, string](n)
	for i := 0; i < n; i++ {
		m.Put(i, "v")
	}
	i := 0
	if a := testing.AllocsPerRun(1000, func() { m.Get(i % n); i++ }); a != 0 {
		t.Errorf("Get allocates %.1f per hit, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() { m.Put(i%n, "w"); i++ }); a != 0 {
		t.Errorf("overwriting Put allocates %.1f, want 0", a)
	}
	if a := testing.AllocsPerRun(1000, func() { m.Put(n+i, "x"); i++ }); a != 0 {
		t.Errorf("evicting Put allocates %.1f, want 0 (the evicted entry is reused)", a)
	}

	// AllocsPerRun floors the average, which amortizes the hash table's own
	// occasional growth away: what is left is the entry.
	grow := New[int, string](4 * n)
	if a := testing.AllocsPerRun(1000, func() { grow.Put(i, "y"); i++ }); a != 1 {
		t.Errorf("inserting Put allocates %.1f, want 1", a)
	}
}
