// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment at a
// reduced-but-faithful size and reports the figure's headline numbers
// as custom metrics (cycles/tx, writes/tx, hit rates, coalescing
// percentages), so `go test -bench=.` regenerates every result the
// paper plots. For publication-size runs use cmd/supermem-bench.
package supermem_test

import (
	"fmt"
	"testing"

	"supermem"
)

// benchOpts sizes the experiments for benchmarking.
func benchOpts() supermem.ExperimentOpts {
	return supermem.ExperimentOpts{Transactions: 60, Warmup: 60, FootprintBytes: 1 << 20}
}

func benchSpec(wl string, scheme supermem.Scheme, txBytes, cores int) supermem.RunSpec {
	o := benchOpts()
	return supermem.RunSpec{
		Workload:       wl,
		Scheme:         scheme,
		TxBytes:        txBytes,
		Transactions:   o.Transactions,
		Warmup:         o.Warmup,
		Cores:          cores,
		FootprintBytes: o.FootprintBytes,
	}
}

// BenchmarkFig13TxLatency regenerates Figure 13: single-core
// transaction latency per workload and scheme. The "cycles/tx" metric
// is the figure's y-axis.
func BenchmarkFig13TxLatency(b *testing.B) {
	for _, txBytes := range []int{256, 1024, 4096} {
		for _, wl := range supermem.Workloads() {
			for _, scheme := range supermem.Schemes() {
				name := fmt.Sprintf("%dB/%s/%s", txBytes, wl, scheme)
				b.Run(name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						res, err := supermem.Simulate(benchSpec(wl, scheme, txBytes, 1))
						if err != nil {
							b.Fatal(err)
						}
						b.ReportMetric(res.AvgTxCycles(), "cycles/tx")
					}
				})
			}
		}
	}
}

// BenchmarkFig14MultiCore regenerates Figure 14: multi-program
// transaction latency at 1 KB transactions.
func BenchmarkFig14MultiCore(b *testing.B) {
	for _, programs := range []int{2, 4, 8} {
		for _, scheme := range []supermem.Scheme{supermem.Unsec, supermem.WB, supermem.WT, supermem.SuperMem} {
			name := fmt.Sprintf("%dp/%s", programs, scheme)
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := supermem.Simulate(benchSpec("hashtable", scheme, 1024, programs))
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(res.AvgTxCycles(), "cycles/tx")
				}
			})
		}
	}
}

// BenchmarkFig15WriteCounts regenerates Figure 15: NVM write requests
// per transaction (the figure normalizes to Unsec; the raw writes/tx
// metric here divides out directly).
func BenchmarkFig15WriteCounts(b *testing.B) {
	for _, txBytes := range []int{256, 1024, 4096} {
		for _, wl := range supermem.Workloads() {
			for _, scheme := range []supermem.Scheme{supermem.Unsec, supermem.WB, supermem.WT, supermem.SuperMem} {
				name := fmt.Sprintf("%dB/%s/%s", txBytes, wl, scheme)
				b.Run(name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						res, err := supermem.Simulate(benchSpec(wl, scheme, txBytes, 1))
						if err != nil {
							b.Fatal(err)
						}
						b.ReportMetric(float64(res.TotalNVMWrites())/float64(res.Transactions), "writes/tx")
					}
				})
			}
		}
	}
}

// BenchmarkFig16WriteQueue regenerates Figure 16: the effect of write
// queue length on counter-write coalescing and latency.
func BenchmarkFig16WriteQueue(b *testing.B) {
	for _, wq := range []int{8, 16, 32, 64, 128} {
		b.Run(fmt.Sprintf("wq%d", wq), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := supermem.DefaultConfig()
				cfg.WriteQueueEntries = wq
				spec := benchSpec("queue", supermem.SuperMem, 1024, 1)
				spec.Config = cfg
				sm, err := supermem.Simulate(spec)
				if err != nil {
					b.Fatal(err)
				}
				spec.Scheme = supermem.WT
				wt, err := supermem.Simulate(spec)
				if err != nil {
					b.Fatal(err)
				}
				if wt.CounterWrites > 0 {
					b.ReportMetric(100*(1-float64(sm.CounterWrites)/float64(wt.CounterWrites)), "%ctr-removed")
				}
				b.ReportMetric(sm.AvgTxCycles(), "cycles/tx")
			}
		})
	}
}

// BenchmarkFig17CounterCache regenerates Figure 17: counter cache hit
// rate and execution time by counter cache size.
func BenchmarkFig17CounterCache(b *testing.B) {
	for _, size := range []int{1 << 10, 16 << 10, 256 << 10, 4 << 20} {
		b.Run(fmt.Sprintf("%dKB", size>>10), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := supermem.DefaultConfig()
				cfg.CounterCache.SizeBytes = size
				if size < 64*cfg.CounterCache.Ways {
					cfg.CounterCache.Ways = size / 64
				}
				spec := benchSpec("rbtree", supermem.SuperMem, 1024, 1)
				spec.Config = cfg
				res, err := supermem.Simulate(spec)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*res.CtrCacheHitRate(), "%ctr-hit")
				b.ReportMetric(float64(res.Cycles), "cycles")
			}
		})
	}
}

// BenchmarkTable1Recoverability regenerates Table 1: the full crash
// sweep over every persistence step of a durable transaction on each
// machine design.
func BenchmarkTable1Recoverability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := supermem.Table1()
		if err != nil {
			b.Fatal(err)
		}
		points := 0
		for _, n := range res.CrashPoints {
			points += n
		}
		b.ReportMetric(float64(points), "crash-points")
	}
}

// BenchmarkAblationPlacement times the counter placement ablation
// (SingleBank / SameBank / XBank x CWC) called out in DESIGN.md.
func BenchmarkAblationPlacement(b *testing.B) {
	placements := []struct {
		name string
		p    supermem.Placement
	}{{"SingleBank", supermem.SingleBank}, {"SameBank", supermem.SameBank}, {"XBank", supermem.XBank}}
	for _, pl := range placements {
		b.Run(pl.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := supermem.DefaultConfig()
				p := pl.p
				cfg.PlacementOverride = &p
				spec := benchSpec("array", supermem.WT, 1024, 1)
				spec.Config = cfg
				res, err := supermem.Simulate(spec)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.AvgTxCycles(), "cycles/tx")
			}
		})
	}
}

// BenchmarkSimulatorThroughput measures the simulator itself: simulated
// transactions per wall-clock second for the full SuperMem system.
func BenchmarkSimulatorThroughput(b *testing.B) {
	spec := benchSpec("hashtable", supermem.SuperMem, 1024, 1)
	b.ResetTimer()
	txs := 0
	for i := 0; i < b.N; i++ {
		res, err := supermem.Simulate(spec)
		if err != nil {
			b.Fatal(err)
		}
		txs += int(res.Transactions)
	}
	b.ReportMetric(float64(txs)/b.Elapsed().Seconds(), "simulated-tx/s")
}

// BenchmarkCrashFuzz measures the crash fuzzer's point throughput.
func BenchmarkCrashFuzz(b *testing.B) {
	p := supermem.CrashFuzzParams{Workload: "queue", Steps: 4, Parallel: 1,
		Modes: []supermem.CrashMode{supermem.CrashSuperMem}}
	for i := 0; i < b.N; i++ {
		res, err := supermem.CrashFuzz(p)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Verdicts[0].Consistent() {
			b.Fatal("fuzz inconsistent")
		}
	}
}
