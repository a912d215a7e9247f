package simtime

import (
	"math/rand"
	"sort"
	"testing"
)

// TestEventQueueOrder: whatever order events are pushed in, and however pops
// interleave with pushes, they leave by (Time, ID) — the queue against a
// sorted slice.
func TestEventQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var q EventQueue
	var want []Event
	check := func(n int) {
		sort.Slice(want, func(a, b int) bool { return want[a].before(want[b]) })
		for i := 0; i < n; i++ {
			got, ok := q.Pop()
			if !ok || got != want[i] {
				t.Fatalf("pop %d: got %+v (ok %v), want %+v", i, got, ok, want[i])
			}
		}
		want = want[n:]
	}
	for round := 0; round < 20; round++ {
		for i := rng.Intn(40); i >= 0; i-- {
			// Few distinct times, so ties on Time are common.
			e := Event{Time: float64(rng.Intn(5)), ID: rng.Intn(1000)}
			q.Push(e)
			want = append(want, e)
		}
		check(rng.Intn(len(want) + 1))
	}
	check(len(want))
	if _, ok := q.Pop(); ok || q.Len() != 0 {
		t.Fatalf("drained queue still pops (len %d)", q.Len())
	}
}

// TestEventQueueSteadyStateAllocs: the synchronous round pushes and pops one
// event per participant, so a warm queue must not allocate.
func TestEventQueueSteadyStateAllocs(t *testing.T) {
	var q EventQueue
	allocs := testing.AllocsPerRun(20, func() {
		for id := 0; id < 64; id++ {
			q.Push(Event{Time: float64(id % 7), ID: id})
		}
		for q.Len() > 0 {
			q.Pop()
		}
	})
	if allocs > 0 {
		t.Fatalf("a warm queue allocates %v times per 64 events, want 0", allocs)
	}
}
