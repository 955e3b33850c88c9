package main

import (
	"fmt"
	"strings"

	"supermem/internal/bench"
	"supermem/internal/config"
	"supermem/internal/core"
	"supermem/internal/nvm"
	"supermem/internal/stats"
	"supermem/internal/trace"
)

// desCell is one timing simulation: a spec replayed from the recording
// it shares with the other schemes of its row.
type desCell struct {
	id   string
	spec bench.Spec
	rec  int // index into desJob.recSpecs
}

// desResult is everything a timing cell produces that the checks and
// per-layer metrics read. It is deterministic, so the same cell must
// give an equal desResult on every pass, traced or not.
type desResult struct {
	m     stats.Metrics
	banks []nvm.BankStats
	ops   int // ops replayed, all phases, summed over cores
}

// recording is one distinct op stream set: per core, the recorded ops,
// how many of them precede the trace.Reset marker, and how many
// transactions follow it.
type recording struct {
	ops    [][]trace.Op
	warmup []int
	txs    []int
}

// desJob drives the timing DES through the calls bench.Runner makes:
// bench.BuildSources + trace.Record once per distinct trace (set-up),
// then core.NewSystem + System.Run per cell on the recorded streams.
type desJob struct {
	cells    []desCell
	recSpecs []bench.Spec
	recs     []recording
	// orderings returns each cell's failure of the workload's
	// paper-ordering checks (nil = ok), given one pass's results.
	orderings func(j *desJob, rs []desResult) []error
}

// check fails a cell that did not complete every measured transaction
// its recording holds, then applies the workload's orderings.
func (j *desJob) check(rs []desResult) []error {
	errs := j.orderings(j, rs)
	for i, c := range j.cells {
		want := 0
		for _, n := range j.recs[c.rec].txs {
			want += n
		}
		if got := rs[i].m.Transactions; got != uint64(want) {
			errs[i] = fmt.Errorf("%s: %d transactions completed, the recording holds %d", c.id, got, want)
		}
	}
	return errs
}

func (j *desJob) runCell(i int, tr *tracer, parent int) (desResult, error) {
	return j.replay(i, tr, parent, false)
}

// traceExtra replays every cell's pre-Reset prefix on a fresh system,
// which splits core.run_s into warmup replay and measured time.
func (j *desJob) traceExtra(tr *tracer, parent int) error {
	for i, c := range j.cells {
		if _, err := j.replay(i, tr, parent, true); err != nil {
			return fmt.Errorf("%s warmup replay: %w", c.id, err)
		}
	}
	return nil
}

func (j *desJob) workUnit() (name, unit string, scale float64) {
	return "sim_mops_per_s", "Mop/s", 1e-6
}

func (j *desJob) cellIDs() []string {
	ids := make([]string, len(j.cells))
	for i, c := range j.cells {
		ids[i] = c.id
	}
	return ids
}

// index maps each cell id to its position.
func (j *desJob) index() map[string]int {
	at := make(map[string]int, len(j.cells))
	for i, c := range j.cells {
		at[c.id] = i
	}
	return at
}

// setup records every distinct trace, replacing any earlier recording.
// The earlier one is dropped first, so repeated set-ups never hold two.
func (j *desJob) setup(tr *tracer, parent int) error {
	j.recs = nil
	recs := make([]recording, len(j.recSpecs))
	for i, spec := range j.recSpecs {
		cell := fmt.Sprintf("trace/%s", spec.Workload)
		sp := tr.begin("workload.build_sources", cell, parent)
		sources, err := bench.BuildSources(spec)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("record %s: %w", cell, err)
		}
		sp = tr.begin("workload.record", cell, parent)
		r := recording{ops: make([][]trace.Op, len(sources))}
		for c, src := range sources {
			r.ops[c] = trace.Record(src)
		}
		tr.end(sp)
		for _, ops := range r.ops {
			warm, txs := split(ops)
			r.warmup = append(r.warmup, warm)
			r.txs = append(r.txs, txs)
		}
		recs[i] = r
	}
	j.recs = recs
	return nil
}

// split counts the ops before the trace.Reset marker (all of them if
// the stream has none) and the transactions ending after it.
func split(ops []trace.Op) (warmup, txs int) {
	warmup = len(ops)
	for i, op := range ops {
		switch {
		case op.Kind == trace.Reset && warmup == len(ops):
			warmup = i
		case op.Kind == trace.TxEnd && warmup < len(ops):
			txs++
		}
	}
	return warmup, txs
}

// simConfig is the configuration bench.Runner gives a spec's system:
// the base template with the spec's core count, scheme and core-model
// knobs applied. The same-computation test pins it to the runner's.
func simConfig(s bench.Spec) config.Config {
	cfg := s.Base
	cfg.Cores = s.Cores
	cfg.Scheme = s.Scheme
	if s.CoreModel != "" {
		cfg.CoreModel = s.CoreModel
	}
	if s.OoOWidth > 0 {
		cfg.OoOWidth = s.OoOWidth
	}
	if s.MSHREntries > 0 {
		cfg.MSHREntries = s.MSHREntries
	}
	if s.PrefetchDegree > 0 {
		cfg.PrefetchDegree = s.PrefetchDegree
	}
	return cfg
}

// replay runs cell i's recording through a fresh system. With
// limitToWarmup, each core replays only its pre-Reset prefix.
func (j *desJob) replay(i int, tr *tracer, parent int, limitToWarmup bool) (desResult, error) {
	c := j.cells[i]
	rec := j.recs[c.rec]
	sp := tr.begin("core.new_system", c.id, parent)
	sys, err := core.NewSystem(simConfig(c.spec))
	tr.end(sp)
	if err != nil {
		return desResult{}, err
	}
	sources := make([]trace.Source, len(rec.ops))
	ops := 0
	for k, o := range rec.ops {
		if limitToWarmup {
			sources[k] = trace.Limit(trace.NewSliceSource(o), rec.warmup[k])
			ops += rec.warmup[k]
		} else {
			sources[k] = trace.NewSliceSource(o)
			ops += len(o)
		}
	}
	name := "core.run"
	if limitToWarmup {
		name = "core.warmup_replay"
	}
	sp = tr.begin(name, c.id, parent)
	m, err := sys.Run(sources)
	tr.end(sp)
	if err != nil {
		return desResult{}, err
	}
	return desResult{m: m, banks: sys.BankStats(), ops: ops}, nil
}

// schemeKey renders a scheme name as a metric-name suffix:
// "WT+CWC" -> "wt_cwc".
func schemeKey(s config.Scheme) string {
	return strings.NewReplacer("+", "_", "-", "_").Replace(strings.ToLower(s.String()))
}

// timedSchemes are the schemes that get a core.run_s.<scheme> metric.
var timedSchemes = []config.Scheme{config.Unsec, config.WB, config.WT, config.WTCWC, config.WTXBank, config.SuperMem, config.Phoenix}

// work reports the trace ops one pass replays, all phases.
func (j *desJob) work(rs []desResult) float64 {
	var ops int
	for _, r := range rs {
		ops += r.ops
	}
	return float64(ops)
}

// layerMetrics derives the per-layer metrics from the traced run's
// spans and the traced pass's results.
func (j *desJob) layerMetrics(tr *tracer, rs []desResult, out metrics) {
	var opsWarm, opsMeasured, opsReplayed int
	for _, r := range j.recs {
		for c, ops := range r.ops {
			opsWarm += r.warmup[c]
			opsMeasured += len(ops) - r.warmup[c]
		}
	}
	// Metrics.Add merges cores (Cycles is their maximum); across cells
	// the simulated cycles add up instead.
	var sum stats.Metrics
	var cycles, busiest, busy uint64
	for _, r := range rs {
		opsReplayed += r.ops
		sum.Add(r.m)
		cycles += r.m.Cycles
		var top uint64
		for _, b := range r.banks {
			busy += b.BusyCycles
			if b.BusyCycles > top {
				top = b.BusyCycles
			}
		}
		busiest += top
	}

	record := tr.total("workload.build_sources", nil) + tr.total("workload.record", nil)
	out["workload.record_s"] = record
	out["workload.record_ns_per_op"] = ratio(record*1e9, float64(opsWarm+opsMeasured))
	out["workload.ops_warmup"] = float64(opsWarm)
	out["workload.ops_measured"] = float64(opsMeasured)

	run := tr.total("core.run", nil)
	out["core.run_s"] = run
	schemeOf := make(map[string]config.Scheme, len(j.cells))
	for _, c := range j.cells {
		schemeOf[c.id] = c.spec.Scheme
	}
	runOf := make(map[config.Scheme]float64)
	for _, s := range timedSchemes {
		runOf[s] = tr.total("core.run", func(cell string) bool { return schemeOf[cell] == s })
		out["core.run_s."+schemeKey(s)] = runOf[s]
	}
	out["core.ns_per_op"] = ratio(run*1e9, float64(opsReplayed))
	out["core.new_system_s"] = tr.total("core.new_system", nil)
	warm := tr.total("core.warmup_replay", nil)
	out["core.warmup_replay_s"] = warm
	out["core.measured_s"] = run - warm
	out["core.sim_cycles"] = float64(cycles)
	out["core.read_stall_cycles"] = float64(sum.ReadStallCycles)
	out["core.mshr_merges"] = float64(sum.MSHRMerges)
	out["core.mshr_full_stalls"] = float64(sum.MSHRFullStalls)
	out["core.prefetch_useful_ratio"] = ratio(float64(sum.PrefetchUseful), float64(sum.PrefetchIssued))

	out["memctrl.nvm_writes"] = float64(sum.TotalNVMWrites() + sum.TreeNodeWrites)
	out["memctrl.coalesced_writes"] = float64(sum.CoalescedWrites)
	out["memctrl.coalesce_ratio"] = ratio(float64(sum.CoalescedWrites), float64(sum.CounterWrites+sum.CoalescedWrites))
	out["memctrl.wq_stall_cycles"] = float64(sum.WQStallCycles)

	out["cache.ctr_hit_rate"] = sum.CtrCacheHitRate()
	out["cache.ctr_misses"] = float64(sum.CtrCacheMisses)
	out["nvm.reads"] = float64(sum.NVMReads)
	out["nvm.max_bank_busy_share"] = ratio(float64(busiest), float64(busy))

	out["integrity.tree_node_writes"] = float64(sum.TreeNodeWrites)
	out["integrity.tree_coalesced_ratio"] = ratio(float64(sum.TreeCoalescedWrites), float64(sum.TreeNodeWrites+sum.TreeCoalescedWrites))
	out["integrity.run_cost_ratio"] = ratio(runOf[config.Phoenix], runOf[config.SuperMem])
}
