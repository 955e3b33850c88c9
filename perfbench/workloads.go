package main

import (
	"fmt"
	"time"

	"supermem/internal/bench"
	"supermem/internal/config"
	"supermem/internal/crash"
	"supermem/internal/machine"
	"supermem/internal/workload"
)

// workloadDef is one benchmark workload. README.md records why each
// was chosen and its first per-layer baseline.
type workloadDef struct {
	name string
	why  string
	// run executes one benchmark run: timed for the budget when tr is
	// nil, else the traced per-layer run.
	run func(seed int64, tr *tracer, budget time.Duration) (*report, error)
}

// runner adapts a job constructor to workloadDef.run.
func runner[R any](mk func(seed int64) job[R]) func(int64, *tracer, time.Duration) (*report, error) {
	return func(seed int64, tr *tracer, budget time.Duration) (*report, error) {
		j := mk(seed)
		if tr != nil {
			return traced(j, tr)
		}
		return measure(j, budget)
	}
}

var workloads = []workloadDef{
	{
		name: "fig13-1k",
		why:  "the paper's headline grid; flush-heavy, >90% of replayed ops are set-up + warmup, so the DES write path and warmup replay dominate",
		run:  runner(func(seed int64) job[desResult] { return fig13Job(seed, fig13Transactions, fig13Footprint) }),
	},
	{
		name: "kv-read",
		why:  "read-heavy Zipfian KV on 4 OoO cores past the L3 and counter-cache reach: read misses, MSHRs, prefetch, tree writes; set-up is the minority",
		run:  runner(func(seed int64) job[desResult] { return kvJob(seed, kvKeys, kvRequests) }),
	},
	{
		name: "crash-fuzz",
		why:  "exhaustive nested crash points on the byte-accurate machine and recovery; never touches the timing DES",
		run:  runner(func(seed int64) job[crash.ModeVerdict] { return crashFuzzJob(seed) }),
	},
}

// Sizing of fig13-1k: the CLI's default Figure 13 run at 1 KB
// transactions (bench.DefaultOpts: 200 measured transactions, 8 MiB
// footprint, no explicit warmup), single in-order core, Table 2 config.
const (
	fig13TxBytes      = 1024
	fig13Transactions = 200
	fig13Footprint    = 8 << 20
)

// fig13Job builds the grid; tests pass a reduced size.
func fig13Job(seed int64, transactions int, footprint uint64) *desJob {
	j := &desJob{orderings: fig13Orderings}
	for _, wl := range workload.Names {
		rec := len(j.recSpecs)
		for _, s := range config.AllSchemes() {
			spec := bench.Spec{
				Base:           config.Default(),
				Workload:       wl,
				Scheme:         s,
				TxBytes:        fig13TxBytes,
				Transactions:   transactions,
				Cores:          1,
				FootprintBytes: footprint,
				Seed:           seed,
			}
			if len(j.recSpecs) == rec {
				j.recSpecs = append(j.recSpecs, spec)
			}
			j.cells = append(j.cells, desCell{id: cellID(wl, s), spec: spec, rec: rec})
		}
	}
	return j
}

// cellID names a DES cell by its workload and scheme.
func cellID(wl string, s config.Scheme) string { return wl + "/" + s.String() }

// fig13Orderings: per structure, WT is slower and writes more than
// SuperMem (Figures 13 and 15).
func fig13Orderings(j *desJob, rs []desResult) []error {
	errs := make([]error, len(j.cells))
	at := j.index()
	for _, wl := range workload.Names {
		w, s := at[cellID(wl, config.WT)], at[cellID(wl, config.SuperMem)]
		a, b := rs[w].m, rs[s].m
		var err error
		if a.AvgTxCycles() <= b.AvgTxCycles() {
			err = fmt.Errorf("%s: WT latency %.1f not above SuperMem %.1f", wl, a.AvgTxCycles(), b.AvgTxCycles())
		} else if a.TotalNVMWrites() <= b.TotalNVMWrites() {
			err = fmt.Errorf("%s: WT NVM writes %d not above SuperMem %d", wl, a.TotalNVMWrites(), b.TotalNVMWrites())
		}
		if err != nil {
			errs[w], errs[s] = err, err
		}
	}
	return errs
}

// Sizing of kv-read: each shard preloads kvKeys items of kvTxBytes
// (24 B header + 224 B value), 5 MiB per shard and 20 MiB in all — past
// the 4 MiB L3 and the 16 MiB of data the 256 KiB counter cache covers
// (one 64 B counter line per 4 KiB page). kvRequests is sized so the
// measured requests hold most of the replayed ops (58%), while a cell
// stays short enough that a timed run takes about eight samples of it.
const (
	kvShards    = 4
	kvKeys      = 20 << 10
	kvRequests  = 32 << 10
	kvTxBytes   = 256
	kvTheta     = 0.99
	kvFootprint = 8 << 20
)

// kvSchemes: unencrypted, the write-through strawman, SuperMem, and an
// integrity-tree design.
var kvSchemes = []config.Scheme{config.Unsec, config.WT, config.SuperMem, config.Phoenix}

// kvBase is the Table 2 config with the OoO core's sizing made
// explicit: width 4, 8 MSHRs, stride prefetch degree 4.
func kvBase() config.Config {
	cfg := config.Default()
	cfg.OoOWidth = 4
	cfg.MSHREntries = 8
	cfg.PrefetchDegree = 4
	return cfg
}

// kvJob builds the grid; tests pass a reduced size.
func kvJob(seed int64, keys, requests int) *desJob {
	j := &desJob{orderings: kvOrderings}
	for _, s := range kvSchemes {
		spec := bench.Spec{
			Base:           kvBase(),
			Workload:       "kv",
			Scheme:         s,
			TxBytes:        kvTxBytes,
			Transactions:   requests,
			Cores:          kvShards,
			FootprintBytes: kvFootprint,
			Seed:           seed,
			CoreModel:      config.CoreOoO,
			KV:             workload.KVConfig{Keys: keys, Theta: kvTheta},
		}
		if len(j.recSpecs) == 0 {
			j.recSpecs = append(j.recSpecs, spec)
		}
		j.cells = append(j.cells, desCell{id: cellID("kv", s), spec: spec})
	}
	return j
}

// kvOrderings: every shard's stream holds all its requests, one
// transaction each (check then confirms each one completes), and WT
// writes more than SuperMem.
func kvOrderings(j *desJob, rs []desResult) []error {
	errs := make([]error, len(j.cells))
	for i, c := range j.cells {
		for shard, n := range j.recs[c.rec].txs {
			if n != c.spec.Transactions {
				errs[i] = fmt.Errorf("%s: shard %d holds %d requests, want %d", c.id, shard, n, c.spec.Transactions)
			}
		}
	}
	at := j.index()
	wt, sm := at[cellID("kv", config.WT)], at[cellID("kv", config.SuperMem)]
	if a, b := rs[wt].m.TotalNVMWrites(), rs[sm].m.TotalNVMWrites(); a <= b {
		err := fmt.Errorf("kv: WT NVM writes %d not above SuperMem %d", a, b)
		errs[wt], errs[sm] = err, err
	}
	return errs
}

// Sizing of crash-fuzz: the fuzzer's default run (6 transactions of
// 256 B on 32-item structures), every crash point, nested recovery
// crashes on.
const (
	crashSteps   = 6
	crashItems   = 32
	crashTxBytes = 256
)

func crashFuzzJob(seed int64) *crashJob {
	j := &crashJob{}
	for _, wl := range workload.Names {
		for _, m := range crash.AllModes {
			j.cells = append(j.cells, crashCell{
				id: wl + "/" + m.String(),
				fp: crash.FuzzParams{
					Workload: wl,
					TxBytes:  crashTxBytes,
					Items:    crashItems,
					Steps:    crashSteps,
					Seed:     seed,
					Nested:   true,
					Parallel: 1,
					Modes:    []machine.Mode{m},
				},
			})
		}
	}
	return j
}
