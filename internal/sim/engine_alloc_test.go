package sim

import "testing"

// pingEv reschedules itself a fixed number of times — the EventObj
// analogue of the closure chain in BenchmarkEngine.
type pingEv struct {
	e     *Engine
	rng   uint64
	left  int
	fired int
}

func (p *pingEv) Fire(uint64) {
	p.fired++
	if p.left > 0 {
		p.left--
		p.rng = p.rng*6364136223846793005 + 1442695040888963407
		p.e.AfterObj(p.rng>>33%600+1, p)
	}
}

// TestEventObjZeroAllocs is the event-loop allocation gate: scheduling
// a pre-allocated EventObj and firing it must not allocate once the
// heap storage is warm. CI's bench-smoke job fails on any regression
// here (ISSUE 6 acceptance).
func TestEventObjZeroAllocs(t *testing.T) {
	var e Engine
	p := &pingEv{e: &e, rng: 1}
	// Warm the heap's backing array.
	p.left = 256
	e.AtObj(e.Now(), p)
	e.Run()
	allocs := testing.AllocsPerRun(500, func() {
		p.left = 4
		e.AtObj(e.Now(), p)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("EventObj push/pop allocates %v objects per run, want 0", allocs)
	}
	if p.fired == 0 {
		t.Fatal("event never fired")
	}
}

// TestEventAdapterZeroAllocs: a closure scheduled through At rides in
// the same heap item as an EventObj (Event implements it), and the
// conversion must not allocate — a func value is pointer-shaped.
func TestEventAdapterZeroAllocs(t *testing.T) {
	var e Engine
	fired := 0
	var fn Event = func(uint64) { fired++ }
	e.At(0, fn)
	e.Run()
	allocs := testing.AllocsPerRun(500, func() {
		e.At(e.Now()+1, fn)
		e.After(2, fn)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("scheduling a closure allocates %v objects per run, want 0", allocs)
	}
	if fired != 1+2*501 {
		t.Fatalf("closure fired %d times, want %d", fired, 1+2*501)
	}
}

// TestAtObjOrdering verifies EventObj and closure events interleave in
// strict (at, seq) order.
func TestAtObjOrdering(t *testing.T) {
	var e Engine
	var order []int
	rec := func(id int) Event { return func(uint64) { order = append(order, id) } }
	obj := &recEv{fn: func() { order = append(order, 2) }}
	e.At(5, rec(1))
	e.AtObj(5, obj)
	e.At(5, rec(3))
	e.AtObj(4, &recEv{fn: func() { order = append(order, 0) }})
	e.Run()
	for i, id := range order {
		if id != i {
			t.Fatalf("fire order = %v, want [0 1 2 3]", order)
		}
	}
	if len(order) != 4 {
		t.Fatalf("fired %d events, want 4", len(order))
	}
}

type recEv struct{ fn func() }

func (r *recEv) Fire(uint64) { r.fn() }

// TestAtObjPastPanics mirrors the At contract.
func TestAtObjPastPanics(t *testing.T) {
	var e Engine
	e.At(10, func(uint64) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("AtObj accepted an event in the past")
		}
	}()
	e.AtObj(5, &recEv{fn: func() {}})
}
