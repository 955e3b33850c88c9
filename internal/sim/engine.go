// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is measured in CPU cycles (uint64). Events scheduled for the same
// cycle fire in the order they were scheduled, which keeps multi-core runs
// reproducible.
package sim

import (
	"fmt"
	"math/bits"
)

// Event is a callback scheduled to fire at a simulated time.
type Event func(now uint64)

// Fire implements EventObj, so closures and objects share one heap
// item layout. A func value is pointer-shaped: storing it in the
// interface does not allocate.
func (f Event) Fire(now uint64) { f(now) }

// EventObj is the allocation-free alternative to Event: a pre-allocated
// object whose Fire method is the callback. Scheduling a closure
// allocates it on the heap every time; scheduling a long-lived object
// through AtObj stores only its interface header in the heap item, so
// components that schedule millions of events (write-queue retires,
// per-core step chains) reuse one object instead of minting closures.
type EventObj interface {
	Fire(now uint64)
}

// item is one scheduled event: 32 bytes, two to a cache line.
type item struct {
	at  uint64
	seq uint64
	obj EventObj
}

func (a item) less(b item) bool { return lessBit(a, b) != 0 }

// lessBit is 1 when a fires before b and 0 otherwise: the borrow of the
// 128-bit subtraction (a.at, a.seq) - (b.at, b.seq). It has no branch
// to mispredict — event times arrive in no predictable order, so the
// sifts' comparisons would otherwise mispredict about half the time.
func lessBit(a, b item) uint64 {
	_, borrow := bits.Sub64(a.seq, b.seq, 0)
	_, borrow = bits.Sub64(a.at, b.at, borrow)
	return borrow
}

// eventHeap is a typed binary min-heap ordered by (at, seq). Scheduling
// an event is the simulator's hottest path, so the heap works on items
// directly rather than through heap.Interface, which would box every
// pushed item into an interface{} (one allocation per scheduled event).
// Both sifts move a hole instead of swapping pairs: each level costs one
// item copy, and the moving item is written once, at its final slot.
type eventHeap []item

func (h *eventHeap) push(it item) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !it.less(s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = it
}

// pop removes the earliest item. It sifts bottom-up (Floyd): the hole
// left at the root walks down to a leaf along the earlier child, with
// no data-dependent exit, and the former last item, which belongs near
// the bottom, then sifts up the few levels it needs. Keys are unique,
// so the pop sequence is the (at, seq) order whatever the sift.
func (h *eventHeap) pop() item {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = item{} // release the callback for GC
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n {
			child += int(lessBit(s[right], s[child]))
		}
		s[i] = s[child]
		i = child
	}
	for i > 0 {
		parent := (i - 1) / 2
		if !last.less(s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = last
	return top
}

// Engine is a discrete-event simulator.
//
// The zero value is ready to use.
type Engine struct {
	now      uint64
	seq      uint64
	heap     eventHeap
	observer func(now uint64)
	fired    uint64
}

// SetObserver installs a hook invoked after each fired event with the
// event's time (nil disables). The observability layer uses it to count
// events per window and to track the end of simulated time.
func (e *Engine) SetObserver(fn func(now uint64)) { e.observer = fn }

// Fired returns the number of events fired so far — a deterministic
// work counter: a change that leaves every simulated cycle unchanged
// but schedules more or fewer events shows here.
func (e *Engine) Fired() uint64 { return e.fired }

// Now returns the current simulated time in cycles.
func (e *Engine) Now() uint64 { return e.now }

// At schedules fn to run at the absolute cycle at. Scheduling in the past
// panics: it always indicates a model bug.
func (e *Engine) At(at uint64, fn Event) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", at, e.now))
	}
	e.seq++
	e.heap.push(item{at: at, seq: e.seq, obj: fn})
}

// After schedules fn to run delay cycles from now.
func (e *Engine) After(delay uint64, fn Event) { e.At(e.now+delay, fn) }

// AtObj schedules ev.Fire to run at the absolute cycle at. It is the
// zero-allocation counterpart of At: ev is typically a pre-allocated
// per-component object, and the same object may be scheduled at several
// times at once (each heap item holds its own copy of the interface).
func (e *Engine) AtObj(at uint64, ev EventObj) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", at, e.now))
	}
	e.seq++
	e.heap.push(item{at: at, seq: e.seq, obj: ev})
}

// AfterObj schedules ev.Fire to run delay cycles from now.
func (e *Engine) AfterObj(delay uint64, ev EventObj) { e.AtObj(e.now+delay, ev) }

// Pending returns the number of scheduled events not yet fired.
func (e *Engine) Pending() int { return len(e.heap) }

// Step fires the next event, advancing time to it. It reports whether an
// event was fired.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	it := e.heap.pop()
	e.now = it.at
	e.fired++
	it.obj.Fire(e.now)
	if e.observer != nil {
		e.observer(it.at)
	}
	return true
}

// Run fires events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with time <= deadline. Time never advances past
// the deadline; remaining events stay queued.
func (e *Engine) RunUntil(deadline uint64) {
	for {
		at, ok := e.NextEventAt()
		if !ok || at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// NextEventAt returns the time of the earliest pending event. The boolean
// is false when the queue is empty.
func (e *Engine) NextEventAt() (uint64, bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.heap[0].at, true
}
