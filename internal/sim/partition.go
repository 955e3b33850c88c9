package sim

import (
	"fmt"
	"runtime"
	"sync"
)

// Bank-partitioned event scheduling.
//
// SetPartitions splits the engine's event storage into the default
// (global) heap plus n sub-heaps, one per partition — in the memory
// model, one per NVM bank. Two stepping disciplines exist over the same
// storage:
//
//   - Serial merged stepping (Step/Run/RunUntil): events fire in strict
//     global (at, seq) order exactly as with a single heap — seq is
//     assigned globally at scheduling time, so partitioning the storage
//     is invisible to results by construction. This is the discipline
//     the integrated system uses: its events share the write queue and
//     cache state, so only their storage, not their execution, may be
//     partitioned.
//
//   - RunParallel: partitions fire concurrently under a safe-horizon
//     barrier. This is only sound for partition-independent event sets
//     (see RunParallel) and is the mode future sharded machines and the
//     synthetic engine benchmarks use.
type partition struct {
	heap eventHeap
	seq  uint64 // local seq source during parallel batches
}

// SetPartitions configures n sub-heaps in addition to the default
// global heap (partition 0 stays the global heap; AtPart indexes
// 1..n). It must be called before any events are scheduled.
func (e *Engine) SetPartitions(n int) {
	if e.Pending() != 0 {
		panic("sim: SetPartitions with events pending")
	}
	if n < 0 {
		panic("sim: negative partition count")
	}
	e.parts = make([]partition, n)
}

// Partitions returns the number of sub-heaps (0 when unpartitioned).
func (e *Engine) Partitions() int { return len(e.parts) }

// SetLookahead bounds RunParallel's batch horizon: events across
// partitions within lookahead cycles of the earliest pending event are
// fired in one parallel batch. In the memory model the sound value is
// the minimum cross-bank latency — no bank can affect another sooner
// than that. Zero (the default) means batches extend to the next
// global-heap event.
func (e *Engine) SetLookahead(cycles uint64) { e.lookahead = cycles }

// partIndex validates p and maps it to the parts slice (1-based; 0 is
// the global heap).
func (e *Engine) partIndex(p int) int {
	if p < 1 || p > len(e.parts) {
		panic(fmt.Sprintf("sim: partition %d out of range 1..%d", p, len(e.parts)))
	}
	return p - 1
}

// AtPart schedules fn at absolute cycle at on partition p (1-based;
// partition 0 is the global heap — use At). Under serial stepping this
// is equivalent to At; under RunParallel the event runs on p's worker
// and must touch only p-local state.
func (e *Engine) AtPart(p int, at uint64, fn Event) {
	e.pushPart(e.partIndex(p), at, item{obj: fn})
}

// AtObjPart is AtPart for a pre-allocated EventObj.
func (e *Engine) AtObjPart(p int, at uint64, ev EventObj) {
	e.pushPart(e.partIndex(p), at, item{obj: ev})
}

func (e *Engine) pushPart(idx int, at uint64, it item) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", at, e.now))
	}
	it.at = at
	pt := &e.parts[idx]
	if e.inBatch {
		// Partition workers schedule concurrently; each draws seq from
		// its own counter (seeded from the global counter at batch
		// start), keeping per-partition FIFO order without sharing.
		pt.seq++
		it.seq = pt.seq
	} else {
		e.seq++
		it.seq = e.seq
	}
	pt.heap.push(it)
}

// minSource returns the heap holding the globally earliest (at, seq)
// event: -1 for the global heap, else a parts index. ok is false when
// everything is empty.
func (e *Engine) minSource() (src int, ok bool) {
	src = -1
	var best *item
	if len(e.heap) > 0 {
		best = &e.heap[0]
	}
	for i := range e.parts {
		h := e.parts[i].heap
		if len(h) > 0 && (best == nil || h[0].less(*best)) {
			best = &h[0]
			src = i
		}
	}
	return src, best != nil
}

// stepMerged fires the globally earliest event across all heaps.
func (e *Engine) stepMerged() bool {
	src, ok := e.minSource()
	if !ok {
		return false
	}
	var it item
	if src < 0 {
		it = e.heap.pop()
	} else {
		it = e.parts[src].heap.pop()
	}
	e.now = it.at
	e.fired++
	it.obj.Fire(e.now)
	if e.observer != nil {
		e.observer(it.at)
	}
	return true
}

// RunParallel fires all events to completion, executing partition
// events concurrently on up to workers goroutines (<= 0 selects
// GOMAXPROCS). Soundness contract — the caller asserts that:
//
//   - events on partition p read and write only p-local state;
//   - events on partition p schedule only onto partition p, at or
//     after their own time;
//   - global-heap events may touch anything, and act as barriers: no
//     partition event at a later-or-equal time runs concurrently with
//     one.
//
// Under that contract the final state is identical to serial Run: each
// partition fires its events in the same (at, seq) order either way,
// and cross-partition interleaving is unobservable. The engine cannot
// check the contract; the serial==parallel byte-identity tests are the
// enforcement. The observer hook is incompatible with concurrent
// firing, so RunParallel panics if one is installed.
func (e *Engine) RunParallel(workers int) {
	if e.observer != nil {
		panic("sim: RunParallel with an observer installed")
	}
	if len(e.parts) == 0 {
		e.Run()
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	for {
		src, ok := e.minSource()
		if !ok {
			return
		}
		if src < 0 {
			// Global event is earliest: fire it serially (it is a
			// barrier and may schedule anywhere).
			it := e.heap.pop()
			e.now = it.at
			e.fired++
			it.obj.Fire(e.now)
			continue
		}
		if len(e.heap) > 0 && e.heap[0].at == e.parts[src].heap[0].at {
			// A global event shares the earliest cycle: a batch bounded
			// by it could fire nothing. Resolve the tie cycle serially,
			// in exact (at, seq) order.
			e.stepMerged()
			continue
		}
		e.parallelBatch(workers)
	}
}

// parallelBatch fires, concurrently, every partition event earlier
// than the safe horizon: the next global-heap event, further bounded by
// lookahead past the earliest pending partition event when configured.
func (e *Engine) parallelBatch(workers int) {
	horizon := uint64(1<<64 - 1)
	if len(e.heap) > 0 {
		horizon = e.heap[0].at
	}
	if e.lookahead > 0 {
		earliest := uint64(1<<64 - 1)
		for i := range e.parts {
			if h := e.parts[i].heap; len(h) > 0 && h[0].at < earliest {
				earliest = h[0].at
			}
		}
		if bound := earliest + e.lookahead; bound < horizon && bound > earliest {
			horizon = bound
		}
	}
	for i := range e.parts {
		e.parts[i].seq = e.seq
	}
	e.inBatch = true
	var wg sync.WaitGroup
	ends := make([]uint64, len(e.parts))
	fired := make([]uint64, len(e.parts))
	sem := make(chan struct{}, workers)
	for i := range e.parts {
		if h := e.parts[i].heap; len(h) == 0 || h[0].at >= horizon {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(idx int) {
			defer wg.Done()
			defer func() { <-sem }()
			pt := &e.parts[idx]
			last := e.now
			for len(pt.heap) > 0 && pt.heap[0].at < horizon {
				it := pt.heap.pop()
				last = it.at
				it.obj.Fire(it.at)
				fired[idx]++
			}
			ends[idx] = last
		}(i)
	}
	wg.Wait()
	e.inBatch = false
	for i := range e.parts {
		if ends[i] > e.now {
			e.now = ends[i]
		}
		if e.parts[i].seq > e.seq {
			e.seq = e.parts[i].seq
		}
		e.fired += fired[i]
	}
}
