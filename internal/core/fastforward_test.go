package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"supermem/internal/config"
	"supermem/internal/fault"
	"supermem/internal/obs"
	"supermem/internal/stats"
	"supermem/internal/trace"
)

// warmupTrace builds an n-op pre-Reset prefix of reads, writes, flushes,
// fences and compute over a 256 KiB footprint, with one hot line
// written and flushed often enough to wrap its minor counter several
// times, followed by Reset and a few measured transactions.
func warmupTrace(seed int64, n int) []trace.Op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]trace.Op, 0, n+32)
	for len(ops) < n {
		addr := uint64(rng.Intn(1<<18)) &^ 63
		if rng.Intn(8) == 0 {
			addr = 0x40
		}
		switch rng.Intn(5) {
		case 0:
			ops = append(ops, trace.Op{Kind: trace.Read, Addr: addr})
		case 1:
			ops = append(ops, trace.Op{Kind: trace.Write, Addr: addr})
		case 2:
			ops = append(ops, trace.Op{Kind: trace.Write, Addr: addr}, trace.Op{Kind: trace.Flush, Addr: addr})
		case 3:
			ops = append(ops, trace.Op{Kind: trace.Fence})
		case 4:
			ops = append(ops, trace.Op{Kind: trace.Compute, Arg: uint64(1 + rng.Intn(40))})
		}
	}
	ops = append(ops[:n], trace.Op{Kind: trace.Reset})
	for i := 0; i < 8; i++ {
		ops = append(ops, writeFlush(uint64(i)*config.PageSize, 0x40)...)
	}
	return ops
}

// detailed hides a source's concrete type, which forces the detailed
// path for the whole run.
func detailed(ops []trace.Op) trace.Source { return struct{ trace.Source }{trace.NewSliceSource(ops)} }

// readStretch returns n reads over a 256 KiB footprint: traffic that
// never enqueues a write.
func readStretch(seed int64, n int) []trace.Op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]trace.Op, n)
	for i := range ops {
		ops[i] = trace.Op{Kind: trace.Read, Addr: uint64(rng.Intn(1<<18)) &^ 63}
	}
	return ops
}

// TestFastForwardStateMatchesDetailedReplay is the functional-warming
// proof obligation: for every registered scheme, the ops fastForward
// skips leave the caches (contents, LRU ticks, statistics), the minor
// counters and the tree write-combining buffer exactly as a detailed
// replay of the same ops does.
func TestFastForwardStateMatchesDetailedReplay(t *testing.T) {
	const skipped = 6000
	ops := warmupTrace(7, skipped+100)
	for _, sch := range config.ExtendedSchemes() {
		cfg := tinyCacheConfig(sch)
		det, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := det.Run([]trace.Source{trace.Limit(trace.NewSliceSource(ops), skipped)}); err != nil {
			t.Fatalf("%v: %v", sch, err)
		}
		ff, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ff.cores[0].src = trace.NewSliceSource(ops)
		ff.fastForward(skipped)
		if sch.Encrypted() && det.m.Reencryptions == 0 {
			t.Fatalf("%v: the prefix never re-encrypted a page", sch)
		}
		for _, part := range []struct {
			name     string
			got, det any
		}{
			{"L1", ff.cores[0].l1, det.cores[0].l1},
			{"L2", ff.cores[0].l2, det.cores[0].l2},
			{"L3", ff.l3, det.l3},
			{"counter cache", ff.ctrCaches, det.ctrCaches},
			{"ctr.Store", ff.ctrStore, det.ctrStore},
			{"tree write-combining buffer", ff.treeWCB, det.treeWCB},
		} {
			if !reflect.DeepEqual(part.got, part.det) {
				t.Errorf("%v: %s after fast-forward differs from detailed replay", sch, part.name)
			}
		}
	}
}

// runBothWays runs ops once as given and once with the detailed path
// forced, failing the test if the measured metrics or bank statistics
// differ. It returns how many ops the first run fast-forwarded.
func runBothWays(t *testing.T, cfg config.Config, ops []trace.Op) int {
	t.Helper()
	var ms [2]stats.Metrics
	var banks [2]any
	var ffOps [2]int
	for i, src := range []trace.Source{trace.NewSliceSource(ops), detailed(ops)} {
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ms[i], err = sys.Run([]trace.Source{src}); err != nil {
			t.Fatalf("%v: %v", cfg.Scheme, err)
		}
		banks[i], ffOps[i] = sys.BankStats(), sys.FastForwardedOps()
	}
	if ffOps[1] != 0 {
		t.Fatalf("%v: the forced-detailed run fast-forwarded %d ops", cfg.Scheme, ffOps[1])
	}
	if ms[0] != ms[1] {
		t.Errorf("%v: metrics differ\nfast-forward: %+v\ndetailed:     %+v", cfg.Scheme, ms[0], ms[1])
	}
	if !reflect.DeepEqual(banks[0], banks[1]) {
		t.Errorf("%v: bank stats differ\nfast-forward: %+v\ndetailed:     %+v", cfg.Scheme, banks[0], banks[1])
	}
	return ffOps[0]
}

// TestFastForwardMetricsMatchDetailed runs whole traces both ways: the
// measured region's metrics and bank statistics must not depend on how
// the warmup was simulated.
func TestFastForwardMetricsMatchDetailed(t *testing.T) {
	mixed := warmupTrace(11, 40000)
	// Writes, then more reads than the tail needs ops: a detailed replay
	// still holds the writes' lazily drained entries at Reset, so the
	// tail must reach back into the writes.
	reset := len(mixed) - 8*len(writeFlush(0, 0x40)) - 1
	readsLast := slices.Concat(mixed[:reset], readStretch(5, 30000), mixed[reset:])
	for _, tc := range []struct {
		name string
		ops  []trace.Op
	}{{"mixed", mixed}, {"reads before reset", readsLast}} {
		t.Run(tc.name, func(t *testing.T) {
			for _, sch := range config.ExtendedSchemes() {
				if n := runBothWays(t, tinyCacheConfig(sch), tc.ops); n == 0 {
					t.Errorf("%v: did not fast-forward", sch)
				}
			}
		})
	}
}

// ringTrace writes and flushes lines round a 300-line ring in groups of
// four, a fence and a short compute after each group, for n ops before
// Reset.
func ringTrace(n int) []trace.Op {
	var ops []trace.Op
	for k := 0; len(ops) < n; {
		for end := k + 4; k < end; k++ {
			a := uint64(k%300) * 64
			ops = append(ops, trace.Op{Kind: trace.Write, Addr: a}, trace.Op{Kind: trace.Flush, Addr: a})
		}
		ops = append(ops, trace.Op{Kind: trace.Fence}, trace.Op{Kind: trace.Compute, Arg: 10})
	}
	ops = append(ops, trace.Op{Kind: trace.Reset})
	for i := 0; i < 8; i++ {
		ops = append(ops, writeFlush(uint64(i)*config.PageSize, 0x40)...)
	}
	return ops
}

// TestFastForwardProbeRejectsQueueOffset covers runs whose lazy-drain
// offset never washes out: a tail started with an empty write queue
// ends at different metrics than the detailed replay, so the probe must
// reject the fast-forward and Run must simulate the whole run in
// detail. The offset persists at the default queue size and at a large
// one.
func TestFastForwardProbeRejectsQueueOffset(t *testing.T) {
	for _, tc := range []struct {
		wq, ops int
	}{{32, 30000}, {512, 200000}} {
		cfg := testConfig(config.WT)
		cfg.WriteQueueEntries = tc.wq
		ops := ringTrace(tc.ops)
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.cores[0].src = trace.NewSliceSource(ops)
		_, n := sys.fastForwardable()
		if n == 0 {
			t.Fatalf("wq %d: trace is not eligible", tc.wq)
		}
		sys.fastForward(n)
		unprobed, err := sys.run()
		if err != nil {
			t.Fatal(err)
		}
		det, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := det.Run([]trace.Source{detailed(ops)})
		if err != nil {
			t.Fatal(err)
		}
		if unprobed == want {
			t.Fatalf("wq %d: the empty-queue tail matches the detailed replay, so the probe is not exercised", tc.wq)
		}
		if n := runBothWays(t, cfg, ops); n != 0 {
			t.Fatalf("wq %d: fast-forwarded %d ops; the probe should have rejected the run", tc.wq, n)
		}
	}
}

// TestFastForwardTail pins how much of the prefix runs in detail: the
// shortest suffix before Reset holding tailEntriesPerSlot write-flush
// pairs per write-queue slot. A flush counts once per line written
// since that line's previous flush.
func TestFastForwardTail(t *testing.T) {
	cfg := testConfig(config.SuperMem)
	cfg.WriteQueueEntries = 2
	need := tailEntriesPerSlot * cfg.WriteQueueEntries
	var ops []trace.Op
	for i := 0; i < need+50; i++ {
		a := uint64(i%7) * 64
		ops = append(ops,
			trace.Op{Kind: trace.Write, Addr: a},
			trace.Op{Kind: trace.Write, Addr: a}, // same line again: no extra pair
			trace.Op{Kind: trace.Flush, Addr: a},
			trace.Op{Kind: trace.Flush, Addr: a}, // clean: no pair
			trace.Op{Kind: trace.Fence})
	}
	ops = slices.Concat(ops, readStretch(1, 1000), []trace.Op{{Kind: trace.Reset}})
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.cores[0].src = trace.NewSliceSource(ops)
	// The need-th pair from the end starts 50 pair groups in; its
	// second Write is the one the backward walk pairs with the flush.
	if _, n := sys.fastForwardable(); n != 50*5+1 {
		t.Fatalf("fast-forwards %d ops, want %d", n, 50*5+1)
	}
	sys.cores[0].src = trace.NewSliceSource(ops[len(ops)-1000-1-need*5+1:])
	if _, n := sys.fastForwardable(); n != 0 {
		t.Fatalf("a prefix one pair short fast-forwards %d ops", n)
	}
}

// TestFastForwardEligibility pins which runs fast-forward: only a
// single in-order core replaying a slice whose pre-Reset prefix is
// plain memory ops with enough write traffic, with no time-driven
// machinery attached.
func TestFastForwardEligibility(t *testing.T) {
	ops := warmupTrace(3, 40000)
	slice := func(o []trace.Op) func() []trace.Source {
		return func() []trace.Source { return []trace.Source{trace.NewSliceSource(o)} }
	}
	base := testConfig(config.SuperMem)
	with := func(f func(*config.Config)) config.Config {
		c := base
		f(&c)
		return c
	}
	reset := slices.IndexFunc(ops, func(op trace.Op) bool { return op.Kind == trace.Reset })
	for _, tc := range []struct {
		name     string
		cfg      config.Config
		srcs     func() []trace.Source
		setup    func(*System)
		eligible bool
	}{
		{name: "eligible", cfg: base, srcs: slice(ops), eligible: true},
		{name: "limit-wrapped source", cfg: base, srcs: func() []trace.Source {
			return []trace.Source{trace.Limit(trace.NewSliceSource(ops), len(ops))}
		}},
		{name: "too little write traffic", cfg: base, srcs: slice(slices.Concat(readStretch(3, 40000), ops[reset:]))},
		{name: "no reset", cfg: base, srcs: slice(ops[:reset])},
		{name: "transaction before reset", cfg: base, srcs: slice(append(writeFlush(0), ops...))},
		{name: "multi-core", cfg: with(func(c *config.Config) { c.Cores = 2 }), srcs: func() []trace.Source {
			return []trace.Source{trace.NewSliceSource(ops), trace.NewSliceSource(ops)}
		}},
		{name: "ooo", cfg: oooConfig(config.SuperMem, 1, 8, 0), srcs: slice(ops)},
		{name: "recorder", cfg: base, srcs: slice(ops), setup: func(s *System) {
			s.SetRecorder(obs.NewRecorder(obs.Options{Window: 4096}))
		}},
		{name: "bank faults", cfg: base, srcs: slice(ops), setup: func(s *System) {
			plan := fault.Plan{Injections: []fault.Injection{{Kind: fault.BankLatency, Step: 1 << 20, Arg: 1 | 10<<32}}}
			s.SetBankFaults(fault.NewBankFaults(plan, base.Banks))
		}},
		{name: "overflow throttle", cfg: with(func(c *config.Config) { c.OverflowThrottlePeriod = 1000 }), srcs: slice(ops)},
		{name: "wear leveling", cfg: with(func(c *config.Config) { c.WearRemapPeriod = 64 }), srcs: slice(ops)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srcs := tc.srcs()
			tc.cfg.Cores = len(srcs)
			sys, err := NewSystem(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.setup != nil {
				tc.setup(sys)
			}
			if _, err := sys.Run(srcs); err != nil {
				t.Fatal(err)
			}
			if n := sys.FastForwardedOps(); (n > 0) != tc.eligible {
				t.Fatalf("fast-forwarded %d ops; eligible: %v", n, tc.eligible)
			}
		})
	}
}
