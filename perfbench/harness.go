package main

import (
	"fmt"
	"reflect"
	"runtime"
	"syscall"
	"time"
)

// job is one workload's unit of work, split the way a user pays for
// it: set-up once, then a pass over independent cells. R is a cell's
// deterministic result.
type job[R any] interface {
	cellIDs() []string
	setup(tr *tracer, parent int) error
	runCell(i int, tr *tracer, parent int) (R, error)
	// check returns each cell's output-check failure (nil = ok).
	check(rs []R) []error
	// work is the pass's work count, in the unit workUnit names after
	// scaling.
	work(rs []R) float64
	workUnit() (name, unit string, scale float64)
	// traceExtra runs layer measurements that are not part of a pass.
	traceExtra(tr *tracer, parent int) error
	layerMetrics(tr *tracer, rs []R, out metrics)
}

// A timed run repeats set-up at least minSetupRepeats times and until
// it has spent a setupShare of the budget on it (at most
// maxSetupRepeats), so a set-up of a few milliseconds still gets a
// steady best. Only the first repeat pays the process's one-time memo
// fills (AES key schedules, Zipf zeta sums), so the best leaves them out.
const (
	minSetupRepeats = 3
	maxSetupRepeats = 200
	setupShare      = 0.05
)

// report is one run's outcome: the JSON metrics, the cell tally, and
// human-readable lines printed before the JSON.
type report struct {
	attempted, failed int
	metrics           metrics
	lines             []string
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// tally runs one pass's checks: a cell fails when it errored, fails its
// output check, or differs from the reference pass's result.
func tally[R any](r *report, j job[R], ids []string, rs []R, errs []error, ref []R) {
	for i, err := range errs {
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", ids[i], err)
		}
	}
	for i, err := range j.check(rs) {
		if errs[i] == nil {
			errs[i] = err
		}
	}
	if ref != nil {
		for i := range rs {
			if errs[i] == nil && !reflect.DeepEqual(rs[i], ref[i]) {
				errs[i] = fmt.Errorf("%s: simulated result differs from the first pass", ids[i])
			}
		}
	}
	r.attempted += len(rs)
	for _, err := range errs {
		if err != nil {
			r.failed++
			r.printf("FAIL %v", err)
		}
	}
}

// measure is the timed, untraced run: set-up repeated, then passes
// until the next one would overrun the budget (at least one). Each
// set-up and pass starts from a collected heap, so none pays for the
// previous one's garbage. Each cell keeps its own samples, so a burst
// of host noise in one pass moves only the cells it hit. Every interval
// is timed twice: in CPU seconds the process spent (all threads, so the
// garbage collector's work counts), which is the gated host time, and
// on the wall clock, which is printed. CPU time leaves out the time a
// shared VM's hypervisor steals from the benchmark.
//
// The gated times take each cell's and the set-up's least CPU time
// (best of n), not the median. On a shared VM the neighbours' load only
// ever slows a sample, by up to 2x on the memory-bound kv-read cells,
// in bursts of seconds that can last for minutes. The median of a run's
// few samples per cell follows those bursts; the least sample is the
// run's quietest moment and moves less between runs. The medians
// are printed beside it.
func measure[R any](j job[R], budget time.Duration) (*report, error) {
	start := time.Now()
	var setupWall, setupCPU, setupAlloc, live []float64
	var spent time.Duration
	for k := 0; k < maxSetupRepeats && (k < minSetupRepeats || spent < time.Duration(setupShare*float64(budget))); k++ {
		runtime.GC()
		a0, c0, t0 := allocated(), cpuTime(), time.Now()
		if err := j.setup(nil, -1); err != nil {
			return nil, err
		}
		spent += time.Since(t0)
		setupWall = append(setupWall, time.Since(t0).Seconds())
		setupCPU = append(setupCPU, cpuTime()-c0)
		setupAlloc = append(setupAlloc, float64(allocated()-a0))
		runtime.GC()
		live = append(live, float64(heapLive()))
	}

	r := &report{metrics: metrics{}}
	ids := j.cellIDs()
	cellWall := make([][]float64, len(ids))
	cellCPU := make([][]float64, len(ids))
	var passS, passAlloc []float64
	var ref []R
	for {
		runtime.GC()
		a0 := allocated()
		p0 := time.Now()
		rs := make([]R, len(ids))
		errs := make([]error, len(ids))
		for i := range ids {
			c0, t0 := cpuTime(), time.Now()
			rs[i], errs[i] = j.runCell(i, nil, -1)
			cellWall[i] = append(cellWall[i], time.Since(t0).Seconds())
			cellCPU[i] = append(cellCPU[i], cpuTime()-c0)
		}
		pass := time.Since(p0)
		passS = append(passS, pass.Seconds())
		passAlloc = append(passAlloc, float64(allocated()-a0))
		tally(r, j, ids, rs, errs, ref)
		if ref == nil {
			ref = rs
		}
		if time.Since(start)+pass > budget {
			break
		}
	}

	// A run's time is its set-up plus the sum over cells, each taken by
	// the given statistic of its samples.
	runTime := func(stat func(summary) float64, setup []float64, cells [][]float64) (total, run float64) {
		for _, s := range cells {
			run += stat(summarize(s))
		}
		return stat(summarize(setup)) + run, run
	}
	best := func(s summary) float64 { return s.Min }
	mid := func(s summary) float64 { return s.Median }
	cpu, _ := runTime(best, setupCPU, cellCPU)
	cpuMid, _ := runTime(mid, setupCPU, cellCPU)
	wall, runWall := runTime(mid, setupWall, cellWall)
	setup, setupW := summarize(setupCPU), summarize(setupWall)
	alloc := (summarize(setupAlloc).Median + summarize(passAlloc).Median) / 1e6
	r.metrics["cpu_s"] = cpu
	r.metrics["setup_s"] = setup.Min
	r.metrics["alloc_mb"] = alloc

	name, unit, scale := j.workUnit()
	passes := summarize(passS)
	r.printf("cpu_s = %.4f s (best set-up + sum of %d per-cell bests over n=%d passes); with medians instead %.4f s", cpu, len(ids), passes.N, cpuMid)
	r.printf("wall_s = %.4f s (median set-up + sum of %d per-cell medians)", wall, len(ids))
	r.printf("setup_s = %.4f CPU s (best of n=%d; median %.4f, q1 %.4f, q3 %.4f); wall %.4f s (median, q1 %.4f, q3 %.4f)",
		setup.Min, setup.N, setup.Median, setup.Q1, setup.Q3, setupW.Median, setupW.Q1, setupW.Q3)
	r.printf("pass_s = %.4f s wall (median, q1 %.4f, q3 %.4f, n=%d)", passes.Median, passes.Q1, passes.Q3, passes.N)
	r.printf("%s = %.4f %s (%.0f per pass / %.4f s wall)", name, ratio(j.work(ref)*scale, runWall), unit, j.work(ref), runWall)
	r.printf("alloc_mb = %.2f MB (one set-up + one pass, medians)", alloc)
	r.printf("live_mb = %.2f MB (heap live after set-up, median)", summarize(live).Median/1e6)
	r.printf("max_rss_mb = %.2f MB (process peak; varies with garbage-collection timing)", maxRSS())
	r.printf("fail_ratio = %.4f (%d of %d cells failed)", failRatio(r.failed, r.attempted), r.failed, r.attempted)
	return r, nil
}

// traced is the per-layer run: one untraced set-up and pass, then the
// same under the span tracer, then the job's extra layer measurements.
// The traced pass's results must equal the untraced ones; the wall-time
// ratio of the two is the tracing overhead.
func traced[R any](j job[R], tr *tracer) (*report, error) {
	r := &report{metrics: metrics{}}
	ids := j.cellIDs()
	runPass := func(tr *tracer, root int) ([]R, []error) {
		rs := make([]R, len(ids))
		errs := make([]error, len(ids))
		for i, id := range ids {
			sp := tr.begin("bench.cell", id, root)
			rs[i], errs[i] = j.runCell(i, tr, sp)
			tr.end(sp)
		}
		return rs, errs
	}

	t0 := time.Now()
	if err := j.setup(nil, -1); err != nil {
		return nil, err
	}
	plain, errs := runPass(nil, -1)
	untraced := time.Since(t0).Seconds()
	tally(r, j, ids, plain, errs, nil)

	root := tr.begin("bench.pass", "", -1)
	sp := tr.begin("bench.setup", "", root)
	err := j.setup(tr, sp)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	rs, errs := runPass(tr, root)
	tr.end(root)
	tally(r, j, ids, rs, errs, plain)

	sp = tr.begin("bench.extra", "", -1)
	err = j.traceExtra(tr, sp)
	tr.end(sp)
	if err != nil {
		return nil, err
	}

	j.layerMetrics(tr, rs, r.metrics)
	tracedS := tr.spans[root].dur()
	r.metrics["bench.trace_overhead_ratio"] = ratio(tracedS, untraced)
	self := tr.selfTimes()
	r.metrics["bench.self_s"] = self["bench.pass"] + self["bench.setup"] + self["bench.cell"]
	r.printf("traced pass %.4f s vs untraced %.4f s", tracedS, untraced)
	r.printf("fail_ratio = %.4f (%d of %d cells failed)", failRatio(r.failed, r.attempted), r.failed, r.attempted)
	return r, nil
}

// allocated is the process's cumulative heap allocation in bytes.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// heapLive is the heap bytes in use, which right after a collection
// is the live heap.
func heapLive() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// cpuTime is the CPU seconds the process has used, user plus system.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// maxRSS is the process's peak resident set size in MB.
func maxRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}
