package workload

import (
	"reflect"
	"strings"
	"testing"

	"supermem/internal/alloc"
	"supermem/internal/machine"
	"supermem/internal/pmem"
	"supermem/internal/trace"
)

const (
	testLogBase = 0
	testLogSize = 1 << 20
	heapBase    = 1 << 20
)

func testParams(t *testing.T, txBytes, items int) Params {
	t.Helper()
	h, err := alloc.NewHeap(
		alloc.Region{Base: heapBase, Size: 64 << 20},
		alloc.Region{Base: 128 << 20, Size: 64 << 20},
	)
	if err != nil {
		t.Fatal(err)
	}
	return Params{Heap: h, TxBytes: txBytes, Items: items, Seed: 42}
}

func runSteps(t *testing.T, name string, p Params, steps int) (Workload, *pmem.TracingBackend) {
	t.Helper()
	w, err := New(name, p)
	if err != nil {
		t.Fatal(err)
	}
	b := pmem.NewTracingBackend()
	tm := pmem.NewTxManager(b, testLogBase, testLogSize)
	if err := w.Setup(tm); err != nil {
		t.Fatalf("%s Setup: %v", name, err)
	}
	for i := 0; i < steps; i++ {
		if err := w.Step(tm); err != nil {
			t.Fatalf("%s Step %d: %v", name, i, err)
		}
	}
	if err := w.Verify(b); err != nil {
		t.Fatalf("%s Verify after %d steps: %v", name, steps, err)
	}
	return w, b
}

func TestAllWorkloadsRunAndVerify(t *testing.T) {
	for _, name := range Names {
		name := name
		t.Run(name, func(t *testing.T) {
			runSteps(t, name, testParams(t, 256, 64), 150)
		})
	}
}

func TestAllWorkloadsLargeTx(t *testing.T) {
	for _, name := range Names {
		name := name
		t.Run(name, func(t *testing.T) {
			runSteps(t, name, testParams(t, 4096, 32), 40)
		})
	}
}

func TestWorkloadsEmitTransactions(t *testing.T) {
	for _, name := range Names {
		_, b := runSteps(t, name, testParams(t, 256, 32), 10)
		begins, ends := 0, 0
		for _, op := range b.Ops() {
			switch op.Kind {
			case trace.TxBegin:
				begins++
			case trace.TxEnd:
				ends++
			}
		}
		if begins != 10 || ends != 10 {
			t.Errorf("%s: %d begins / %d ends, want 10/10", name, begins, ends)
		}
	}
}

// Transaction payloads should track TxBytes: a 4 KB transaction writes
// roughly 16x the data lines of a 256 B transaction.
func TestTxSizeScalesWrites(t *testing.T) {
	countDataWrites := func(txBytes int) int {
		_, b := runSteps(t, "array", testParams(t, txBytes, 32), 20)
		writes := 0
		for _, op := range b.Ops() {
			if op.Kind == trace.Flush && op.Addr >= heapBase {
				writes++
			}
		}
		return writes
	}
	small := countDataWrites(256)
	large := countDataWrites(4096)
	ratio := float64(large) / float64(small)
	if ratio < 8 || ratio > 32 {
		t.Fatalf("4KB/256B data-flush ratio = %.1f (small=%d large=%d), want ~16", ratio, small, large)
	}
}

// The paper's locality story (Section 5.4): the queue writes contiguous
// addresses; the hash table scatters. Measure distinct pages touched by
// data flushes per transaction.
func TestLocalityContrast(t *testing.T) {
	pagesPerTx := func(name string) float64 {
		_, b := runSteps(t, name, testParams(t, 1024, 128), 50)
		pages := map[uint64]bool{}
		for _, op := range b.Ops() {
			if op.Kind == trace.Flush && op.Addr >= heapBase {
				pages[op.Addr/4096] = true
			}
		}
		return float64(len(pages)) / 50
	}
	q := pagesPerTx("queue")
	h := pagesPerTx("hashtable")
	if q >= h {
		t.Fatalf("queue touches %.2f pages/tx, hashtable %.2f — locality contrast missing", q, h)
	}
}

func TestWorkloadsDeterministic(t *testing.T) {
	for _, name := range Names {
		_, b1 := runSteps(t, name, testParams(t, 256, 32), 25)
		_, b2 := runSteps(t, name, testParams(t, 256, 32), 25)
		ops1, ops2 := b1.Ops(), b2.Ops()
		if len(ops1) != len(ops2) {
			t.Errorf("%s: op counts differ: %d vs %d", name, len(ops1), len(ops2))
			continue
		}
		for i := range ops1 {
			if ops1[i] != ops2[i] {
				t.Errorf("%s: op %d differs: %v vs %v", name, i, ops1[i], ops2[i])
				break
			}
		}
	}
}

// Run every workload on the byte-accurate encrypted machine and verify
// the structures decrypt intact — exercising real encryption under real
// data-structure traffic.
func TestWorkloadsOnEncryptedMachine(t *testing.T) {
	for _, name := range Names {
		name := name
		t.Run(name, func(t *testing.T) {
			m, err := machine.New(machine.WTRegister, []byte("0123456789abcdef"))
			if err != nil {
				t.Fatal(err)
			}
			p := testParams(t, 256, 32)
			w, err := New(name, p)
			if err != nil {
				t.Fatal(err)
			}
			tm := pmem.NewTxManager(m, testLogBase, testLogSize)
			if err := w.Setup(tm); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 40; i++ {
				if err := w.Step(tm); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
			if err := w.Verify(m); err != nil {
				t.Fatalf("verify on live machine: %v", err)
			}
			// Clean crash: flushed state must survive.
			m.Crash()
			r := m.Recover()
			pmem.Recover(r, testLogBase, testLogSize)
			if err := w.Verify(r); err != nil {
				t.Fatalf("verify after crash: %v", err)
			}
		})
	}
}

func TestBTreeSplitsDeep(t *testing.T) {
	// Enough inserts with big values to force leaf splits and at least
	// one root split (height > 1).
	p := testParams(t, 1024, 16)
	w, err := New("btree", p)
	if err != nil {
		t.Fatal(err)
	}
	b := pmem.NewTracingBackend()
	tm := pmem.NewTxManager(b, testLogBase, testLogSize)
	if err := w.Setup(tm); err != nil {
		t.Fatal(err)
	}
	bt := w.(*btreeWorkload)
	for i := 0; i < 100; i++ {
		if err := w.Step(tm); err != nil {
			t.Fatal(err)
		}
	}
	if m := bt.loadMeta(b); m.height < 2 {
		t.Fatalf("tree height %d after 100 1KB inserts, want >= 2 (no splits exercised)", m.height)
	}
	if err := w.Verify(b); err != nil {
		t.Fatal(err)
	}
	// Lookups find every inserted key.
	for key := range bt.inserted {
		val, ok, err := bt.Lookup(b, key)
		if err != nil || !ok {
			t.Fatalf("Lookup(%d) = %v, %v", key, ok, err)
		}
		if !checkFill(val, key) {
			t.Fatalf("Lookup(%d) returned corrupt payload", key)
		}
	}
	if _, ok, _ := bt.Lookup(b, 12345); ok {
		t.Fatal("Lookup found a never-inserted key")
	}
}

func TestRBTreeBalances(t *testing.T) {
	p := testParams(t, 256, 16)
	w, err := New("rbtree", p)
	if err != nil {
		t.Fatal(err)
	}
	b := pmem.NewTracingBackend()
	tm := pmem.NewTxManager(b, testLogBase, testLogSize)
	if err := w.Setup(tm); err != nil {
		t.Fatal(err)
	}
	rb := w.(*rbWorkload)
	for i := 0; i < 300; i++ {
		if err := w.Step(tm); err != nil {
			t.Fatal(err)
		}
	}
	// Verify checks BST order, red-red, and black-height; depth bound
	// confirms balancing actually happened.
	if err := w.Verify(b); err != nil {
		t.Fatal(err)
	}
	c := rb.ctx(b)
	var depth func(addr uint64) int
	depth = func(addr uint64) int {
		if addr == 0 {
			return 0
		}
		n := c.get(addr)
		l, r := depth(n.left), depth(n.right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	if d := depth(c.root); d > 2*10 { // 2*log2(300+1) ~ 17
		t.Fatalf("rbtree depth %d for 300 keys — not balanced", d)
	}
}

func TestQueueWrapsAround(t *testing.T) {
	p := testParams(t, 256, 8) // 8 slots force wraparound quickly
	w, err := New("queue", p)
	if err != nil {
		t.Fatal(err)
	}
	b := pmem.NewTracingBackend()
	tm := pmem.NewTxManager(b, testLogBase, testLogSize)
	if err := w.Setup(tm); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := w.Step(tm); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	q := w.(*queueWorkload)
	if m := q.loadMeta(b); m.head < q.slots {
		t.Fatalf("head slot %d never wrapped %d slots", m.head, q.slots)
	}
	if err := w.Verify(b); err != nil {
		t.Fatal(err)
	}
}

func TestHashTableChains(t *testing.T) {
	// Few buckets + many inserts forces chains longer than 1.
	p := testParams(t, 256, 8)
	w, err := New("hashtable", p)
	if err != nil {
		t.Fatal(err)
	}
	b := pmem.NewTracingBackend()
	tm := pmem.NewTxManager(b, testLogBase, testLogSize)
	if err := w.Setup(tm); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := w.Step(tm); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Verify(b); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownWorkload(t *testing.T) {
	_, err := New("bogus", testParams(t, 256, 16))
	if err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("New(bogus) err = %v", err)
	}
}

func TestParamValidation(t *testing.T) {
	p := testParams(t, 256, 16)
	p.Heap = nil
	if _, err := New("array", p); err == nil {
		t.Fatal("nil heap accepted")
	}
	p = testParams(t, 16, 16)
	if _, err := New("array", p); err == nil {
		t.Fatal("sub-line TxBytes accepted")
	}
	p = testParams(t, 256, 0)
	if _, err := New("array", p); err == nil {
		t.Fatal("zero items accepted")
	}
}

func TestNamesComplete(t *testing.T) {
	want := []string{"array", "queue", "btree", "hashtable", "rbtree"}
	if len(Names) != len(want) {
		t.Fatalf("Names = %v", Names)
	}
	for i, n := range want {
		if Names[i] != n {
			t.Fatalf("Names[%d] = %q, want %q", i, Names[i], n)
		}
	}
}

// Verify only reads the workload: the crash fuzzer memoizes each
// replayed workload and verifies every crash point's recovered machine
// against it, from several goroutines at once. A workload that has been
// verified — against a matching backend, a mismatching one and the
// byte-accurate machine — must equal a twin that never was.
func TestVerifyLeavesWorkloadUnchanged(t *testing.T) {
	const steps = 12
	build := func(name string, b pmem.Backend, steps int) Workload {
		t.Helper()
		w, err := New(name, testParams(t, 256, 32))
		if err != nil {
			t.Fatal(err)
		}
		tm := pmem.NewTxManager(b, testLogBase, testLogSize)
		if err := w.Setup(tm); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < steps; i++ {
			if err := w.Step(tm); err != nil {
				t.Fatalf("%s step %d: %v", name, i, err)
			}
		}
		return w
	}
	for _, name := range Names {
		t.Run(name, func(t *testing.T) {
			w := build(name, pmem.NewTracingBackend(), steps)
			twin := build(name, pmem.NewTracingBackend(), steps)
			if !reflect.DeepEqual(w, twin) {
				t.Fatal("two builds of the same workload differ")
			}
			match := pmem.NewTracingBackend()
			build(name, match, steps)
			ahead := pmem.NewTracingBackend()
			build(name, ahead, steps+1)
			m, err := machine.New(machine.WTRegister, []byte("verify-invariant"))
			if err != nil {
				t.Fatal(err)
			}
			build(name, m, steps)
			for _, b := range []pmem.Backend{match, m} {
				if err := w.Verify(b); err != nil {
					t.Fatalf("matching state fails to verify: %v", err)
				}
			}
			if w.Verify(pmem.NewTracingBackend()) == nil {
				t.Fatal("an empty backend verifies")
			}
			w.Verify(ahead) // either verdict: only the side effects matter
			if !reflect.DeepEqual(w, twin) {
				t.Fatal("Verify changed the workload")
			}
		})
	}
}
