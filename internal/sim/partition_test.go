package sim

import (
	"reflect"
	"testing"
)

// lcg is the deterministic schedule generator shared by the partition
// tests: same seed, same event pattern, regardless of engine mode.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r)
}

// TestPartitionedMatchesSerialOrder drives the same scheduling sequence
// through an unpartitioned engine (plain At) and a bank-partitioned one
// (AtPart routed by bank) and requires the exact same fire order. This
// is the byte-identity-by-construction property serial merged stepping
// claims: seq is global either way, so partitioning the storage must
// not reorder anything — including events tied on the same cycle.
func TestPartitionedMatchesSerialOrder(t *testing.T) {
	const banks = 8
	run := func(partitioned bool) []int {
		var e Engine
		if partitioned {
			e.SetPartitions(banks)
		}
		var order []int
		id := 0
		rng := lcg(42)
		var spawn func(bank int, at uint64, depth int)
		spawn = func(bank int, at uint64, depth int) {
			myID := id
			id++
			fn := func(now uint64) {
				order = append(order, myID)
				if depth > 0 {
					// Reschedule with deliberately colliding times so
					// same-cycle tiebreaks are exercised.
					spawn(bank, now+rng.next()%3, depth-1)
				}
			}
			if partitioned {
				e.AtPart(bank+1, at, fn)
			} else {
				e.At(at, fn)
			}
		}
		for b := 0; b < banks; b++ {
			for i := 0; i < 4; i++ {
				spawn(b, rng.next()%5, 20)
			}
		}
		e.Run()
		return order
	}
	serial := run(false)
	parted := run(true)
	if len(serial) == 0 || len(serial) != len(parted) {
		t.Fatalf("fired %d vs %d events", len(serial), len(parted))
	}
	if !reflect.DeepEqual(serial, parted) {
		for i := range serial {
			if serial[i] != parted[i] {
				t.Fatalf("fire order diverges at event %d: serial=%d partitioned=%d", i, serial[i], parted[i])
			}
		}
	}
}

// partWork is the partition-independent workload both Run and
// RunParallel execute: each partition owns one accumulator and a chain
// of self-rescheduling events that fold fired times into it.
type partWork struct {
	e    *Engine
	bank int
	acc  uint64
	left int
	rng  lcg
}

func (w *partWork) Fire(now uint64) {
	w.acc = w.acc*31 + now
	if w.left > 0 {
		w.left--
		w.e.AtObjPart(w.bank, now+1+w.rng.next()%7, w)
	}
}

func runPartWork(parallel bool, workers int, lookahead uint64) ([]uint64, uint64) {
	const banks = 16
	var e Engine
	e.SetPartitions(banks)
	e.SetLookahead(lookahead)
	works := make([]*partWork, banks)
	for b := range works {
		works[b] = &partWork{e: &e, bank: b + 1, left: 500, rng: lcg(b + 1)}
		e.AtObjPart(b+1, uint64(b%3), works[b])
	}
	if parallel {
		e.RunParallel(workers)
	} else {
		e.Run()
	}
	accs := make([]uint64, banks)
	for b, w := range works {
		accs[b] = w.acc
	}
	return accs, e.Now()
}

// TestRunParallelMatchesSerial is the serial==parallel acceptance test
// at the engine level: a partition-independent workload must end in an
// identical state (per-partition accumulators and final clock) whether
// stepped serially or fired concurrently — with and without a lookahead
// bound, and under -race.
func TestRunParallelMatchesSerial(t *testing.T) {
	wantAccs, wantNow := runPartWork(false, 0, 0)
	for _, tc := range []struct {
		name      string
		workers   int
		lookahead uint64
	}{
		{"unbounded", 4, 0},
		{"lookahead1", 4, 1},
		{"lookahead8", 8, 8},
		{"oneWorker", 1, 0},
	} {
		accs, now := runPartWork(true, tc.workers, tc.lookahead)
		if !reflect.DeepEqual(accs, wantAccs) {
			t.Errorf("%s: per-partition state diverges from serial run", tc.name)
		}
		if now != wantNow {
			t.Errorf("%s: Now() = %d, want %d", tc.name, now, wantNow)
		}
	}
}

// TestRunParallelGlobalBarrier checks the safe-horizon barrier: a
// global-heap event must observe every strictly-earlier partition event
// already applied, and no later one.
func TestRunParallelGlobalBarrier(t *testing.T) {
	const banks = 4
	var e Engine
	e.SetPartitions(banks)
	ticks := make([]uint64, banks)
	for b := 0; b < banks; b++ {
		bank := b + 1
		var tick func(now uint64)
		tick = func(now uint64) {
			ticks[bank-1]++
			if now < 40 {
				e.AtPart(bank, now+2, tick)
			}
		}
		e.AtPart(bank, 1, tick)
	}
	var atBarrier uint64
	e.At(21, func(now uint64) {
		for _, n := range ticks {
			atBarrier += n
		}
	})
	e.RunParallel(4)
	// Each bank ticks at cycles 1,3,...,41 (the tick at 39 schedules one
	// last at 41); 10 of the 21 are strictly before cycle 21.
	if want := uint64(banks * 10); atBarrier != want {
		t.Fatalf("barrier event saw %d ticks, want %d", atBarrier, want)
	}
	var total uint64
	for _, n := range ticks {
		total += n
	}
	if want := uint64(banks * 21); total != want {
		t.Fatalf("total ticks = %d, want %d", total, want)
	}
	// Fired counts events of the parallel batches and the serial
	// global event alike.
	if got := e.Fired(); got != total+1 {
		t.Fatalf("Fired() = %d, want %d", got, total+1)
	}
}

// TestRunParallelTieWithGlobal pins the tie rule: when a partition
// event and a global event share the earliest cycle, the engine falls
// back to serial merged stepping for that cycle, so scheduling order
// (seq) decides — exactly as in Run.
func TestRunParallelTieWithGlobal(t *testing.T) {
	var e Engine
	e.SetPartitions(2)
	var order []string
	e.AtPart(1, 5, func(now uint64) { order = append(order, "part") })
	e.At(5, func(now uint64) { order = append(order, "global") })
	e.RunParallel(2)
	if !reflect.DeepEqual(order, []string{"part", "global"}) {
		t.Fatalf("tie order = %v, want scheduling order [part global]", order)
	}
}

// TestRunParallelObserverPanics pins the documented incompatibility.
func TestRunParallelObserverPanics(t *testing.T) {
	var e Engine
	e.SetPartitions(1)
	e.SetObserver(func(uint64) {})
	defer func() {
		if recover() == nil {
			t.Fatal("RunParallel with observer did not panic")
		}
	}()
	e.RunParallel(2)
}

// TestSetPartitionsWithPendingPanics pins the must-configure-first rule.
func TestSetPartitionsWithPendingPanics(t *testing.T) {
	var e Engine
	e.At(1, func(uint64) {})
	defer func() {
		if recover() == nil {
			t.Fatal("SetPartitions with pending events did not panic")
		}
	}()
	e.SetPartitions(4)
}

// benchEngineWork builds the benchmark workload: banks chains of chained
// events, each doing a small amount of arithmetic "model work" per fire
// so the benchmark measures engine orchestration, not pure heap churn.
func benchEngineWork(e *Engine, banks, chainLen int) []*partWork {
	works := make([]*partWork, banks)
	for b := range works {
		works[b] = &partWork{e: e, bank: b + 1, left: chainLen, rng: lcg(b + 17)}
	}
	return works
}

// BenchmarkEngineSerial is the baseline for BenchmarkEngineParallel:
// the same bank-partitioned workload stepped by the serial merged loop.
func BenchmarkEngineSerial(b *testing.B) {
	const banks, chain = 16, 2000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var e Engine
		e.SetPartitions(banks)
		for _, w := range benchEngineWork(&e, banks, chain) {
			e.AtObjPart(w.bank, 0, w)
		}
		e.Run()
	}
}

// BenchmarkEngineParallel measures the bank-partitioned parallel
// stepping mode on a partition-independent workload (the satellite
// benchmark from the issue). Compare against BenchmarkEngineSerial.
func BenchmarkEngineParallel(b *testing.B) {
	const banks, chain = 16, 2000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var e Engine
		e.SetPartitions(banks)
		for _, w := range benchEngineWork(&e, banks, chain) {
			e.AtObjPart(w.bank, 0, w)
		}
		e.RunParallel(0)
	}
}
