package agent

import (
	"runtime"
	"testing"
)

func TestDedupSetDetectsDuplicates(t *testing.T) {
	a := New(Config{ID: 1, Building: -1, DedupCap: 8}, nil)
	if seenBefore(a.seen, 42) {
		t.Error("first sighting must not be a duplicate")
	}
	if !seenBefore(a.seen, 42) {
		t.Error("second sighting must be a duplicate")
	}
	if n := a.seen.Len(); n != 1 {
		t.Errorf("len = %d, want 1", n)
	}
}

func TestDedupSetEvictsOldestFirst(t *testing.T) {
	a := New(Config{ID: 1, Building: -1, DedupCap: 4}, nil)
	for id := uint64(0); id < 4; id++ {
		seenBefore(a.seen, id)
	}
	// A 5th ID evicts id 0 (FIFO), nothing else.
	seenBefore(a.seen, 100)
	if n := a.seen.Len(); n != 4 {
		t.Fatalf("len = %d, want capacity 4", n)
	}
	if !seenBefore(a.seen, 1) || !seenBefore(a.seen, 2) || !seenBefore(a.seen, 3) {
		t.Error("recent ids must survive the eviction")
	}
	if seenBefore(a.seen, 0) {
		t.Error("id 0 should have been evicted, but was still seen")
	}
}

func TestDedupSetStaysBounded(t *testing.T) {
	const capacity = 64
	a := New(Config{ID: 1, Building: -1, DedupCap: capacity}, nil)
	for id := uint64(0); id < 10*capacity; id++ {
		seenBefore(a.seen, id)
		if n := a.seen.Len(); n > capacity {
			t.Fatalf("cache grew to %d past capacity %d", n, capacity)
		}
	}
	if n := a.seen.Len(); n != capacity {
		t.Errorf("steady-state len = %d, want %d", n, capacity)
	}
	// The newest window is exactly what survives.
	for id := uint64(10*capacity - capacity); id < 10*capacity; id++ {
		if !seenBefore(a.seen, id) {
			t.Fatalf("id %d from the newest window was evicted", id)
		}
	}
}

func TestDedupSetZeroCapUsesDefault(t *testing.T) {
	a := New(Config{ID: 1, Building: -1}, nil)
	for id := uint64(0); id < DefaultDedupCap; id++ {
		if seenBefore(a.seen, id) {
			t.Fatalf("id %d evicted before the default cap was reached", id)
		}
	}
	seenBefore(a.seen, DefaultDedupCap)
	if n := a.seen.Len(); n != DefaultDedupCap {
		t.Fatalf("len = %d, want default cap %d", n, DefaultDedupCap)
	}
	if seenBefore(a.seen, 0) {
		t.Error("the oldest id survived past the default cap")
	}
}

func TestAgentDedupConfigurable(t *testing.T) {
	// A tiny cache: after capacity distinct messages, the first message is
	// forgotten and counted as fresh again.
	a := New(Config{ID: 1, Building: -1, DedupCap: 2}, nil)
	seenBefore(a.seen, 1)
	seenBefore(a.seen, 2)
	seenBefore(a.seen, 3) // evicts 1
	if seenBefore(a.seen, 1) {
		t.Error("evicted message should be treated as fresh")
	}
}

// TestNewAgentAllocatesLittle pins that an agent's dedup and conduit caches
// grow with traffic instead of being sized for their caps up front: a
// freshly built agent is a few kilobytes, not megabytes, so a city of
// agents fits a router's memory before it has carried any traffic.
func TestNewAgentAllocatesLittle(t *testing.T) {
	const agents, budget = 64, 64 << 10
	keep := make([]*Agent, agents)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = New(Config{ID: i, Building: -1}, nil)
	}
	runtime.ReadMemStats(&after)
	perAgent := (after.TotalAlloc - before.TotalAlloc) / agents
	t.Logf("agent.New allocates %d bytes per agent", perAgent)
	if perAgent > budget {
		t.Errorf("agent.New allocates %d bytes per agent, budget %d", perAgent, budget)
	}
	runtime.KeepAlive(keep)
}
