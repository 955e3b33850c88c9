package memctrl

import (
	"testing"

	"supermem/internal/config"
)

// nopAcceptor is a pre-allocated Acceptor so the regression test
// measures the controller's own allocations, not the caller's.
type nopAcceptor struct{ n int }

func (a *nopAcceptor) Accepted(uint64) { a.n++ }

// TestEnqueueRetireZeroAllocs is the hot-path allocation gate: once the
// entry pool and queue storage are warm, a full enqueue → issue →
// retire cycle must not allocate. CI's bench-smoke job fails on any
// regression here (ISSUE 6 acceptance).
func TestEnqueueRetireZeroAllocs(t *testing.T) {
	r := newRig(t, 8, true)
	acc := &nopAcceptor{}
	entries := []Entry{
		{Addr: r.l.BankBase(0)},
		{Addr: r.l.BankBase(1) + config.LineSize, Counter: true},
	}
	cycle := func() {
		if err := r.c.EnqueueTo(r.eng.Now(), entries, acc); err != nil {
			t.Fatal(err)
		}
		r.c.Flush(r.eng.Now())
		r.eng.Run()
	}
	// Warm: grow the queue slice, entry pool, and event heap.
	for i := 0; i < 32; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("enqueue/issue/retire cycle allocates %v objects, want 0", allocs)
	}
	if acc.n == 0 {
		t.Fatal("acceptor never invoked")
	}
	if live := r.c.entryPool.Live(); live != 0 {
		t.Fatalf("%d queued entries leaked from the pool", live)
	}
}

// TestEntryPoolSteadyState verifies retire and CWC removal both return
// entries to the pool: total allocations stop growing after warmup.
func TestEntryPoolSteadyState(t *testing.T) {
	r := newRig(t, 8, true)
	for i := 0; i < 100; i++ {
		// Alternate a coalescible counter line and plain data so both
		// recycle paths (retire, CWC removal) run.
		r.c.Enqueue(r.eng.Now(), []Entry{r.data(0, uint64(i%4)), r.ctr(4, 0)}, func(uint64) {})
		if i%4 == 3 {
			r.c.Flush(r.eng.Now())
			r.eng.Run()
		}
	}
	r.c.Flush(r.eng.Now())
	r.eng.Run()
	if !r.c.Drained() {
		t.Fatal("controller did not drain")
	}
	if got := r.c.entryPool.Allocated(); got > 16 {
		t.Fatalf("pool allocated %d entries for a capacity-8 queue; recycling is broken", got)
	}
	if live := r.c.entryPool.Live(); live != 0 {
		t.Fatalf("%d entries leaked", live)
	}
}

// TestSchedulerPassesZeroAllocs is the allocation gate of the
// scheduling pass itself: a full queue with stalled waiters, reads
// holding banks busy (so passes arm retries), CWC removals and
// beyond-window issues must all run without allocating once the queue,
// waiter list, entry pool and event heap are warm.
func TestSchedulerPassesZeroAllocs(t *testing.T) {
	r := newRig(t, 16, true)
	acc := &nopAcceptor{}
	groups := make([][]Entry, 24)
	for i := range groups {
		// Mostly one hot data bank, so the window backs up and the
		// idle-bank writes behind it issue from beyond the window.
		bank := 0
		if i%4 == 3 {
			bank = 2
		}
		groups[i] = []Entry{
			r.data(bank, uint64(i)),
			r.ctr(4+i%2, 0), // two counter lines, rewritten: CWC removes
		}
	}
	stalled := 0
	cycle := func() {
		now := r.eng.Now()
		r.c.ReadLine(now, r.data(0, 999).Addr) // bank 0 busy: retries
		r.c.ReadLine(now, r.data(1, 999).Addr)
		for _, g := range groups {
			if err := r.c.EnqueueTo(now, g, acc); err != nil {
				t.Fatal(err)
			}
		}
		stalled += r.c.PendingWaiters()
		r.c.Flush(now)
		r.eng.Run()
	}
	for i := 0; i < 32; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("scheduling passes allocate %v objects per cycle, want 0", allocs)
	}
	if stalled == 0 || r.m.CoalescedWrites == 0 {
		t.Fatalf("cycle never stalled a group (%d) or coalesced a counter (%d)", stalled, r.m.CoalescedWrites)
	}
	if !r.c.Drained() {
		t.Fatal("controller did not drain")
	}
}
