package sim

import (
	"container/heap"
	"testing"
)

// benchPattern drives an engine-like scheduler the way the memory model
// does: a moving window of pending events where each fired event
// schedules a successor at a pseudo-random delay.
const benchWindow = 64

func BenchmarkEngine(b *testing.B) {
	var e Engine
	rng := uint64(1)
	delay := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng>>33%600 + 1
	}
	fired := 0
	var chain Event
	chain = func(uint64) {
		fired++
		if fired < b.N {
			e.After(delay(), chain)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < benchWindow && i < b.N; i++ {
		e.After(delay(), chain)
	}
	e.Run()
}

// boxedHeap is the pre-optimization event queue (container/heap over
// interface{}) on the current item layout, kept as a benchmark
// baseline: BenchmarkEngine vs BenchmarkBoxedHeapBaseline shows the
// allocation removed per scheduled event by the typed heap, and the
// test below uses it as the reference pop order.
type boxedHeap []item

func (h boxedHeap) Len() int            { return len(h) }
func (h boxedHeap) Less(i, j int) bool  { return h[i].less(h[j]) }
func (h boxedHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x interface{}) { *h = append(*h, x.(item)) }
func (h *boxedHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func BenchmarkBoxedHeapBaseline(b *testing.B) {
	var h boxedHeap
	rng := uint64(1)
	delay := func() uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng>>33%600 + 1
	}
	now := uint64(0)
	seq := uint64(0)
	fired := 0
	var chain Event
	chain = func(uint64) {
		fired++
		if fired < b.N {
			seq++
			heap.Push(&h, item{at: now + delay(), seq: seq, obj: chain})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < benchWindow && i < b.N; i++ {
		seq++
		heap.Push(&h, item{at: delay(), seq: seq, obj: chain})
	}
	for h.Len() > 0 {
		it := heap.Pop(&h).(item)
		now = it.at
		it.obj.Fire(now)
	}
}

// TestHeapMatchesContainerHeap cross-checks the typed heap's pop order
// against container/heap on a long pseudo-random schedule.
func TestHeapMatchesContainerHeap(t *testing.T) {
	var typed eventHeap
	var boxed boxedHeap
	rng := uint64(42)
	for seq := uint64(0); seq < 5000; seq++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		it := item{at: rng >> 33 % 997, seq: seq}
		typed.push(it)
		heap.Push(&boxed, it)
	}
	for i := 0; boxed.Len() > 0; i++ {
		want := heap.Pop(&boxed).(item)
		got := typed.pop()
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("pop %d: typed heap = (%d,%d), container/heap = (%d,%d)",
				i, got.at, got.seq, want.at, want.seq)
		}
	}
	if len(typed) != 0 {
		t.Fatalf("typed heap has %d leftover items", len(typed))
	}
}
