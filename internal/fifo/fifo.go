// Package fifo provides the repository's one bounded FIFO cache: a map
// that, once full, forgets its oldest insertion first.
//
// FIFO eviction fits every cache that uses it: the agent's duplicate
// suppression, the session layer's resubmission window and the forwarding
// kernel's conduit cache all see a key again within a short burst (a flood
// wave, a client's retries), so insertion order behaves like recency
// without per-hit bookkeeping.
package fifo

// Map is a bounded map with FIFO eviction. Storage grows with the number
// of distinct keys held, up to the capacity given to New; a Map that has
// seen n < cap keys holds O(n) memory. A Map is not safe for concurrent
// use; callers keep their own lock.
type Map[K comparable, V any] struct {
	cap  int
	m    map[K]V
	ring []K // insertion order; grows to cap, then is overwritten in place
	next int // ring slot the next insertion overwrites once full
}

// New returns an empty map holding at most capacity entries. capacity must
// be positive; callers resolve their own defaults first.
func New[K comparable, V any](capacity int) *Map[K, V] {
	if capacity <= 0 {
		panic("fifo: capacity must be positive")
	}
	return &Map[K, V]{cap: capacity, m: make(map[K]V)}
}

// Get returns the value stored for k and whether k is present.
func (f *Map[K, V]) Get(k K) (V, bool) {
	v, ok := f.m[k]
	return v, ok
}

// Put stores v under k. A key already present has its value replaced and
// keeps its place in the eviction order; a new key at capacity evicts the
// oldest insertion.
func (f *Map[K, V]) Put(k K, v V) {
	if _, ok := f.m[k]; ok {
		f.m[k] = v
		return
	}
	if len(f.ring) < f.cap {
		f.ring = append(f.ring, k)
	} else {
		delete(f.m, f.ring[f.next])
		f.ring[f.next] = k
		f.next = (f.next + 1) % f.cap
	}
	f.m[k] = v
}

// Len returns the number of entries held.
func (f *Map[K, V]) Len() int { return len(f.m) }
