package fifo

import (
	"math/rand"
	"testing"
)

// model is the reference semantics: entries in insertion order, a refresh
// rewrites the value where it stands, and a new key at capacity drops the
// front.
type model struct {
	cap  int
	keys []int
	vals []int
}

func (m *model) put(k, v int) {
	for i, key := range m.keys {
		if key == k {
			m.vals[i] = v
			return
		}
	}
	if len(m.keys) == m.cap {
		m.keys, m.vals = m.keys[1:], m.vals[1:]
	}
	m.keys = append(m.keys, k)
	m.vals = append(m.vals, v)
}

func (m *model) get(k int) (int, bool) {
	for i, key := range m.keys {
		if key == k {
			return m.vals[i], true
		}
	}
	return 0, false
}

// order returns f's keys oldest first: the order evictions will take.
func order(f *Map[int, int]) []int {
	if len(f.ring) < f.cap {
		return append([]int(nil), f.ring...)
	}
	return append(append([]int(nil), f.ring[f.next:]...), f.ring[:f.next]...)
}

// check compares f with the model over every key in [0, keySpace).
func check(t *testing.T, step int, f *Map[int, int], m *model, keySpace int) {
	t.Helper()
	if f.Len() != len(m.keys) {
		t.Fatalf("step %d: Len = %d, model %d", step, f.Len(), len(m.keys))
	}
	got := order(f)
	if len(got) != len(m.keys) {
		t.Fatalf("step %d: eviction order %v, model %v", step, got, m.keys)
	}
	for i := range got {
		if got[i] != m.keys[i] {
			t.Fatalf("step %d: eviction order %v, model %v", step, got, m.keys)
		}
	}
	for k := 0; k < keySpace; k++ {
		gv, gok := f.Get(k)
		mv, mok := m.get(k)
		if gok != mok || gv != mv {
			t.Fatalf("step %d: Get(%d) = %d, %v; model %d, %v", step, k, gv, gok, mv, mok)
		}
	}
}

// TestMatchesReferenceModel runs seeded random Get/Put sequences against
// the model, from capacity 1 up, each long enough to wrap the ring many
// times over, and compares contents, Len and eviction order after every
// Put.
func TestMatchesReferenceModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 7, 64} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		keySpace := 3*capacity + 2
		f := New[int, int](capacity)
		m := &model{cap: capacity}
		for step := 0; step < 40*capacity+200; step++ {
			k := rng.Intn(keySpace)
			if rng.Intn(4) == 0 {
				gv, gok := f.Get(k)
				if mv, mok := m.get(k); gok != mok || gv != mv {
					t.Fatalf("cap %d step %d: Get(%d) = %d, %v; model %d, %v", capacity, step, k, gv, gok, mv, mok)
				}
				continue
			}
			v := rng.Int()
			f.Put(k, v)
			m.put(k, v)
			check(t, step, f, m, keySpace)
		}
	}
}

func TestRefreshKeepsSlot(t *testing.T) {
	f := New[int, int](3)
	f.Put(1, 10)
	f.Put(2, 20)
	f.Put(3, 30)
	f.Put(1, 11) // refresh: 1 stays the oldest
	if v, ok := f.Get(1); !ok || v != 11 {
		t.Fatalf("Get(1) = %d, %v; want 11, true", v, ok)
	}
	f.Put(4, 40)
	if _, ok := f.Get(1); ok {
		t.Fatal("refreshed key 1 kept its slot and should have been evicted first")
	}
	for k := 2; k <= 4; k++ {
		if _, ok := f.Get(k); !ok {
			t.Fatalf("key %d evicted out of order", k)
		}
	}
}

func TestStorageGrowsWithUse(t *testing.T) {
	f := New[uint64, struct{}](1 << 16)
	if cap(f.ring) != 0 {
		t.Fatalf("empty map preallocated a ring of %d", cap(f.ring))
	}
	for id := uint64(0); id < 100; id++ {
		f.Put(id, struct{}{})
	}
	if c := cap(f.ring); c > 200 {
		t.Fatalf("100 keys hold a ring of %d slots", c)
	}
}

func TestNewRejectsNonPositiveCapacity(t *testing.T) {
	for _, c := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", c)
				}
			}()
			New[int, int](c)
		}()
	}
}
