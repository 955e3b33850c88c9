// Command supermem-bench regenerates the tables and figures of the
// SuperMem paper's evaluation (MICRO 2019).
//
// Usage:
//
//	supermem-bench -exp fig13                 # Figure 13, all tx sizes
//	supermem-bench -exp fig14                 # Figure 14 (2/4/8 programs)
//	supermem-bench -exp fig15 -tx 4096        # one tx size only
//	supermem-bench -exp fig16                 # write queue sweep
//	supermem-bench -exp fig17                 # counter cache sweep
//	supermem-bench -exp table1                # recoverability sweep
//	supermem-bench -exp ablation              # placement & coalescing ablations
//	supermem-bench -exp osiris                # Osiris relaxed-counter-persistence extension
//	supermem-bench -exp faultsweep            # fault x crash x ECC grid + bank quarantine
//	supermem-bench -exp faultsweep -fault-strict -json   # CI gate + artifact
//	supermem-bench -exp kv                    # sharded KV serving under Zipfian skew
//	supermem-bench -exp kv -kv-shards 8 -kv-skew 0.99 -kv-mix 50,30,10,5,5 -json
//	supermem-bench -exp attack                # persistence-based attacks vs mitigations
//	supermem-bench -exp attack -attack-strict -json      # CI gate + artifact
//	supermem-bench -exp mlp                   # core models x schemes: OoO width/MSHR/prefetch sweep
//	supermem-bench -exp mlp -mlp-widths 1,4 -mlp-mshrs 2 -json
//	supermem-bench -exp all                   # everything
//	supermem-bench -exp all -parallel 1       # serial (identical output)
//	supermem-bench -exp fig13 -json           # also write BENCH_fig13_*.json
//
// Sizing knobs: -transactions, -warmup, -footprint, -seed. Latency
// tables print both raw cycles and the paper's normalized-to-Unsec
// form.
//
// Core model knobs: -core selects the per-core timing model for every
// experiment ("inorder", the default, or "ooo"); -ooo-width, -mshrs,
// and -prefetch size the OoO model's issue window, MSHR file, and
// stride prefetcher. The model is timing-only — workload op streams
// and the trace cache are unaffected. -kv-core and -attack-core
// override the model for the KV shard cores and the attack
// experiment's attacker core respectively.
//
// Every figure is a grid of independent deterministic simulations;
// -parallel N fans the grid across N workers (default: all CPUs) with
// byte-identical output at any setting. A per-experiment trace cache
// records each workload's op streams once and replays them per scheme.
// -json additionally writes one BENCH_<exp>.json artifact per
// experiment with the wall time, cache counters, and table data.
//
// Observability (see EXPERIMENTS.md):
//
//	supermem-bench -exp fig13 -hist           # print p50/p95/p99 latency tables
//	supermem-bench -exp fig13 -events t.json  # trace_event capture of one cell
//	supermem-bench -events t.json -events-cell btree/SuperMem
//
// -events writes one Chrome trace_event JSON file per experiment
// (openable in Perfetto) capturing the -events-cell cell's bank
// reservations, write-queue admissions/retirements, CWC removals, and
// re-encryptions. -hist collects latency histograms on every cell; with
// -json they land in the artifact's "histograms" block. Output stays
// byte-identical at any -parallel value.
//
// Profiling: -cpuprofile cpu.out and -memprofile mem.out write
// runtime/pprof profiles of a successful run for `go tool pprof`.
//
// The command takes flags only: a positional argument exits with status
// 2 before anything runs (flag parsing stops at the first one, so the
// flags after it would otherwise be dropped silently).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"supermem"
	"supermem/internal/profile"
)

// artifact is the machine-readable per-experiment record -json emits.
type artifact struct {
	Experiment string             `json:"experiment"`
	WallMillis int64              `json:"wall_ms"`
	Parallel   int                `json:"parallel"`
	CacheHits  int64              `json:"trace_cache_hits"`
	CacheMiss  int64              `json:"trace_cache_misses"`
	Tables     []*supermem.Table  `json:"tables,omitempty"`
	Histograms []supermem.CellObs `json:"histograms,omitempty"`
	Text       string             `json:"text,omitempty"`
}

func main() {
	var (
		exp          = flag.String("exp", "all", "experiment: table1, fig13, fig14, fig15, fig16, fig17, ablation, sca, osiris, faultsweep, integrity, kv, attack, mlp, all")
		faultStrict  = flag.Bool("fault-strict", false, "exit non-zero if the faultsweep or integrity experiments violate their detection claims (silent corruption, unflagged replays, dead quarantine cell)")
		faultSeed    = flag.Int64("fault-seed", 0, "base seed for the faultsweep's generated plans (0 = default)")
		csv          = flag.Bool("csv", false, "print tables as CSV instead of aligned text")
		jsonOut      = flag.Bool("json", false, "write a BENCH_<exp>.json artifact per experiment (wall time + tables)")
		txBytes      = flag.Int("tx", 0, "restrict fig13/fig15 to one transaction size (256, 1024, 4096); 0 = all three")
		parallel     = flag.Int("parallel", runtime.NumCPU(), "simulation cells run concurrently (1 = serial; output is identical)")
		transactions = flag.Int("transactions", 0, "measured transactions per core (0 = default)")
		warmup       = flag.Int("warmup", 0, "warmup transactions per core (0 = auto)")
		footprint    = flag.Uint64("footprint", 0, "per-program footprint in bytes (0 = default 8 MiB)")
		seed         = flag.Int64("seed", 0, "workload seed (0 = default)")
		events       = flag.String("events", "", "write a Chrome trace_event JSON per experiment (base path; experiment name is appended)")
		eventsCell   = flag.String("events-cell", "array/SuperMem", "workload/scheme cell to trace with -events")
		eventsMax    = flag.Int("events-max", 1<<20, "trace event buffer cap per traced cell")
		hist         = flag.Bool("hist", false, "collect per-cell latency histograms (printed, and embedded in -json artifacts)")
		obsWindow    = flag.Uint64("obs-window", 0, "observability series window in cycles (0 = default 4096)")
		perfAppend   = flag.String("perf-append", "", "append this run's headline wall times to the given perf-trajectory JSON file (e.g. BENCH_perf.json)")
		perfLabel    = flag.String("perf-label", "", "free-form label recorded with -perf-append (e.g. a commit subject)")
		cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (runtime/pprof)")
		memProfile   = flag.String("memprofile", "", "write a heap profile at the end of the run to this file (runtime/pprof)")

		coreModel = flag.String("core", "", "core timing model for every experiment: inorder (default) or ooo")
		oooWidth  = flag.Int("ooo-width", 0, "OoO issue-window width (0 = default 4; requires -core ooo)")
		mshrs     = flag.Int("mshrs", 0, "MSHR-file entries of the ooo core (0 = default 8; requires -core ooo)")
		prefetch  = flag.Int("prefetch", 0, "stride-prefetcher degree of the ooo core (0 = off; requires -core ooo)")

		kvShards   = flag.String("kv-shards", "", "comma-separated shard counts for -exp kv (default 1,2,4,8)")
		kvKeys     = flag.Int("kv-keys", 0, "per-shard keyspace for -exp kv (default 4096)")
		kvRequests = flag.Int("kv-requests", 0, "measured requests per shard for -exp kv (default -transactions)")
		kvThetas   = flag.String("kv-skew", "", "comma-separated Zipfian thetas in [0,1) for -exp kv (default 0,0.99)")
		kvMix      = flag.String("kv-mix", "", "read,update,insert,delete,scan percentages for -exp kv (default 95,5,0,0,0)")
		kvTx       = flag.Int("kv-tx", 0, "transaction/value sizing in bytes for -exp kv (default 256)")
		kvScan     = flag.Int("kv-scan", 0, "keys per scan request for -exp kv (default 16)")
		kvUncore   = flag.Bool("kv-uncore", true, "include the shared-vs-partitioned counter-cache and per-core write-queue cells in -exp kv")
		kvCore     = flag.String("kv-core", "", "core timing model of the KV shard cores for -exp kv (inorder or ooo; default: -core)")

		attackStrict = flag.Bool("attack-strict", false, "exit non-zero if any attack fails to do damage unmitigated or any mitigation fails to measurably reduce it")
		attackSteps  = flag.Int("attack-steps", 0, "measured attacker steps per timing cell for -exp attack (default 64)")
		attackLoop   = flag.Int("attack-loop", 0, "crash-loop iterations for -exp attack (default 6)")
		attackBound  = flag.Int("attack-bound", 0, "recovery-work bound of the mitigated crash-loop cells (default 16)")
		attackCore   = flag.String("attack-core", "", "attacker core timing model for -exp attack (inorder or ooo; victims stay in-order)")

		mlpWidths   = flag.String("mlp-widths", "", "comma-separated OoO widths for -exp mlp (default 1,2,4,8)")
		mlpMSHRs    = flag.String("mlp-mshrs", "", "comma-separated MSHR-file sizes swept at the widest width for -exp mlp (default 2,32)")
		mlpPrefetch = flag.String("mlp-prefetch", "", "comma-separated prefetch degrees swept at the widest width for -exp mlp (default 4)")
		mlpWorkload = flag.String("mlp-workload", "", "workload for -exp mlp (default btree)")
		mlpTx       = flag.Int("mlp-tx", 0, "transaction size in bytes for -exp mlp (default 1024)")
	)
	flag.Parse()
	// flag.Parse stops at the first non-flag argument, so a stray value
	// (e.g. "-json out.json": -json takes none) would silently drop every
	// flag after it.
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "supermem-bench: unexpected argument %q (flags only; -json takes no value)\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	stopProfiles, err := profile.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "supermem-bench: %v\n", err)
		os.Exit(1)
	}

	opts := supermem.DefaultExperimentOpts()
	if *transactions > 0 {
		opts.Transactions = *transactions
	}
	if *warmup > 0 {
		opts.Warmup = *warmup
	}
	if *footprint > 0 {
		opts.FootprintBytes = *footprint
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	opts.Parallel = *parallel
	cfg := supermem.DefaultConfig()
	// The core-model knobs flow to every experiment through the shared
	// config template (the mlp experiment sweeps its own model axis on
	// top of it). Validate here so a bad -core spelling or an orphan
	// OoO knob fails before any simulation starts.
	cfg.CoreModel = *coreModel
	cfg.OoOWidth = *oooWidth
	cfg.MSHREntries = *mshrs
	cfg.PrefetchDegree = *prefetch
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "supermem-bench: %v\n", err)
		os.Exit(2)
	}

	// Each experiment collects its printed tables so -json can emit the
	// same data as a machine-readable artifact.
	var collected []*supermem.Table
	var collectedText string
	show := func(t *supermem.Table) {
		collected = append(collected, t)
		if *csv {
			fmt.Println(t.Title)
			fmt.Print(t.CSV())
			fmt.Println()
			return
		}
		fmt.Println(t)
	}

	sizes := []int{256, 1024, 4096}
	if *txBytes > 0 {
		sizes = []int{*txBytes}
	}

	var walls []perfExperiment

	run := func(name string, fn func() error) {
		collected, collectedText = nil, ""
		// A fresh collector per experiment so trace files and histogram
		// blocks don't mix cells across experiments.
		opts.Obs = nil
		if *hist || *events != "" {
			opts.Obs = &supermem.ObsCollector{
				Window:         *obsWindow,
				Hist:           *hist,
				TraceLabel:     traceLabel(*events, *eventsCell),
				MaxTraceEvents: *eventsMax,
			}
		}
		start := time.Now()
		hits0, miss0 := supermem.TraceCacheStats()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "supermem-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		wall := time.Since(start)
		walls = append(walls, perfExperiment{Name: name, WallMillis: wall.Milliseconds()})
		hits, miss := supermem.TraceCacheStats()
		dh, dm := hits-hits0, miss-miss0
		if dh+dm > 0 {
			fmt.Printf("[%s done in %s; trace cache %d hits / %d misses]\n\n",
				name, wall.Round(time.Millisecond), dh, dm)
		} else {
			fmt.Printf("[%s done in %s]\n\n", name, wall.Round(time.Millisecond))
		}
		var hists []supermem.CellObs
		if opts.Obs != nil {
			hists = opts.Obs.Cells()
			if *hist && !*jsonOut {
				printHistograms(hists)
			}
			if *events != "" {
				writeTrace(*events, name, opts.Obs)
			}
		}
		if *jsonOut {
			a := artifact{
				Experiment: name,
				WallMillis: wall.Milliseconds(),
				Parallel:   *parallel,
				CacheHits:  dh,
				CacheMiss:  dm,
				Tables:     collected,
				Text:       collectedText,
			}
			if *hist {
				a.Histograms = hists
			}
			writeArtifact(a)
		}
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false

	if want("table1") {
		ran = true
		run("table1", func() error {
			res, err := supermem.Table1Parallel(*parallel)
			if err != nil {
				return err
			}
			collectedText = res.String()
			fmt.Println(res)
			return nil
		})
	}
	if want("fig13") {
		ran = true
		for _, size := range sizes {
			size := size
			run(fmt.Sprintf("fig13/%dB", size), func() error {
				tbl, err := supermem.Figure13(cfg, size, opts)
				if err != nil {
					return err
				}
				show(tbl)
				show(tbl.Normalize("Unsec"))
				return nil
			})
		}
	}
	if want("fig14") {
		ran = true
		for _, programs := range []int{2, 4, 8} {
			programs := programs
			run(fmt.Sprintf("fig14/%dp", programs), func() error {
				tbl, err := supermem.Figure14(cfg, programs, opts)
				if err != nil {
					return err
				}
				show(tbl)
				show(tbl.Normalize("Unsec"))
				return nil
			})
		}
	}
	if want("fig15") {
		ran = true
		for _, size := range sizes {
			size := size
			run(fmt.Sprintf("fig15/%dB", size), func() error {
				tbl, err := supermem.Figure15(cfg, size, opts)
				if err != nil {
					return err
				}
				show(tbl)
				return nil
			})
		}
	}
	if want("fig16") {
		ran = true
		run("fig16", func() error {
			reduction, latency, err := supermem.Figure16(cfg, opts)
			if err != nil {
				return err
			}
			show(reduction)
			show(latency)
			return nil
		})
	}
	if want("fig17") {
		ran = true
		run("fig17", func() error {
			hit, execTime, err := supermem.Figure17(cfg, opts)
			if err != nil {
				return err
			}
			show(hit)
			show(execTime)
			return nil
		})
	}
	if want("ablation") {
		ran = true
		run("ablation/placement", func() error {
			tbl, err := supermem.AblationPlacement(cfg, opts)
			if err != nil {
				return err
			}
			show(tbl)
			show(tbl.Normalize("XBank+CWC"))
			return nil
		})
		run("ablation/coalescing", func() error {
			tbl, err := supermem.AblationTxSizeCoalescing(cfg, opts)
			if err != nil {
				return err
			}
			show(tbl)
			return nil
		})
	}
	if want("sca") {
		ran = true
		run("extension/sca", func() error {
			tbl, err := supermem.ExtensionSCA(cfg, opts)
			if err != nil {
				return err
			}
			show(tbl)
			show(tbl.Normalize("Unsec"))
			return nil
		})
	}
	if want("osiris") {
		ran = true
		runOsiris(cfg, opts, *jsonOut, *csv)
	}
	if want("faultsweep") {
		ran = true
		runFaultSweep(*parallel, *faultSeed, *faultStrict, *jsonOut)
	}
	if want("integrity") {
		ran = true
		runIntegrity(*parallel, *faultStrict, *jsonOut)
	}
	if want("kv") {
		ran = true
		ko, err := kvOpts(*kvShards, *kvKeys, *kvRequests, *kvThetas, *kvMix, *kvTx, *kvScan, *kvUncore)
		if err != nil {
			fmt.Fprintf(os.Stderr, "supermem-bench: kv: %v\n", err)
			os.Exit(2)
		}
		// -kv-core overrides the template model for the shard cores only;
		// without it the shards inherit -core through cfg.
		ko.CoreModel = *kvCore
		// The kv experiment joins the -perf-append trajectory like the
		// standard figure runners.
		walls = append(walls, perfExperiment{Name: "kv", WallMillis: runKV(cfg, opts, ko, *jsonOut)})
	}
	if want("attack") {
		ran = true
		ao := supermem.AttackOpts{
			Steps:          *attackSteps,
			LoopIterations: *attackLoop,
			RecoveryBound:  *attackBound,
			AttackerModel:  *attackCore,
		}
		walls = append(walls, perfExperiment{Name: "attack", WallMillis: runAttack(cfg, opts, ao, *attackStrict, *jsonOut)})
	}
	if want("mlp") {
		ran = true
		mo, err := mlpOpts(*mlpWidths, *mlpMSHRs, *mlpPrefetch, *mlpWorkload, *mlpTx)
		if err != nil {
			fmt.Fprintf(os.Stderr, "supermem-bench: mlp: %v\n", err)
			os.Exit(2)
		}
		walls = append(walls, perfExperiment{Name: "mlp", WallMillis: runMLP(cfg, opts, mo, *jsonOut)})
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "supermem-bench: unknown experiment %q (want %s)\n",
			*exp, strings.Join([]string{"table1", "fig13", "fig14", "fig15", "fig16", "fig17", "ablation", "sca", "osiris", "faultsweep", "integrity", "kv", "attack", "mlp", "all"}, ", "))
		os.Exit(2)
	}
	if *perfAppend != "" {
		appendPerf(*perfAppend, perfRun{
			Date:         time.Now().UTC().Format("2006-01-02T15:04:05Z"),
			Label:        *perfLabel,
			GoVersion:    runtime.Version(),
			Parallel:     *parallel,
			Transactions: opts.Transactions,
			Experiments:  walls,
		})
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "supermem-bench: %v\n", err)
		os.Exit(1)
	}
}

// perfSchema versions the perf-trajectory file; CI diffs it.
const perfSchema = 1

// perfExperiment is one experiment's headline wall time within a run.
type perfExperiment struct {
	Name       string `json:"name"`
	WallMillis int64  `json:"wall_ms"`
}

// perfRun is one appended record in the perf-trajectory file: the
// headline wall times of every experiment the invocation executed
// through the standard runner (the osiris and faultsweep extensions
// report their own timing and are not recorded).
type perfRun struct {
	Date         string           `json:"date"`
	Label        string           `json:"label,omitempty"`
	GoVersion    string           `json:"go_version"`
	Parallel     int              `json:"parallel"`
	Transactions int              `json:"transactions"`
	Experiments  []perfExperiment `json:"experiments"`
}

// perfFile is the BENCH_perf.json trajectory: an append-only log of
// benchmark runs across the repository's history.
type perfFile struct {
	Schema int       `json:"schema"`
	Runs   []perfRun `json:"runs"`
}

// appendPerf loads (or creates) the trajectory file and appends run.
func appendPerf(path string, run perfRun) {
	var pf perfFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &pf); err != nil {
			fmt.Fprintf(os.Stderr, "supermem-bench: parsing %s: %v\n", path, err)
			os.Exit(1)
		}
		if pf.Schema != perfSchema {
			fmt.Fprintf(os.Stderr, "supermem-bench: %s has schema %d, want %d\n", path, pf.Schema, perfSchema)
			os.Exit(1)
		}
	} else if !os.IsNotExist(err) {
		fmt.Fprintf(os.Stderr, "supermem-bench: reading %s: %v\n", path, err)
		os.Exit(1)
	}
	pf.Schema = perfSchema
	pf.Runs = append(pf.Runs, run)
	data, err := json.MarshalIndent(pf, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "supermem-bench: encoding %s: %v\n", path, err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "supermem-bench: writing %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("[appended run %d to %s]\n", len(pf.Runs), path)
}

// osirisArtifact is the machine-readable osiris-extension record. Like
// the faultsweep artifact it carries no wall time or parallelism
// fields, so the same config and seed produce a byte-identical
// BENCH_osiris.json at any -parallel setting.
type osirisArtifact struct {
	Experiment string            `json:"experiment"`
	Tables     []*supermem.Table `json:"tables"`
}

// runOsiris runs the Osiris extension figure: tx latency and enqueued
// counter writes for the relaxed counter-persistence scheme against the
// paper's bracketing schemes.
func runOsiris(cfg supermem.Config, opts supermem.ExperimentOpts, jsonOut, csv bool) {
	start := time.Now()
	latency, writes, err := supermem.ExtensionOsiris(cfg, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "supermem-bench: osiris: %v\n", err)
		os.Exit(1)
	}
	for _, t := range []*supermem.Table{latency, latency.Normalize("Unsec"), writes} {
		if csv {
			fmt.Println(t.Title)
			fmt.Print(t.CSV())
			fmt.Println()
		} else {
			fmt.Println(t)
		}
	}
	fmt.Printf("[extension/osiris done in %s]\n\n", time.Since(start).Round(time.Millisecond))
	if jsonOut {
		a := osirisArtifact{Experiment: "osiris", Tables: []*supermem.Table{latency, writes}}
		data, err := json.MarshalIndent(a, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "supermem-bench: encoding BENCH_osiris.json: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile("BENCH_osiris.json", append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "supermem-bench: writing BENCH_osiris.json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("[wrote BENCH_osiris.json]\n\n")
	}
}

// faultArtifact is the machine-readable faultsweep record. Unlike the
// figure artifacts it carries no wall time or parallelism fields: the
// same seed and config produce a byte-identical BENCH_faultsweep.json
// at any -parallel setting.
type faultArtifact struct {
	Experiment string                     `json:"experiment"`
	Seed       int64                      `json:"seed"`
	Result     *supermem.FaultSweepResult `json:"result"`
}

// runFaultSweep executes the fault x crash x ECC grid plus the bank
// quarantine cell, enforcing the no-silent-corruption claim when
// strict is set.
func runFaultSweep(parallel int, seed int64, strict, jsonOut bool) {
	o := supermem.FaultSweepOpts{Parallel: parallel}
	if seed != 0 {
		o.PlanSeeds = []int64{seed, seed + 1}
	}
	start := time.Now()
	res, err := supermem.FaultSweep(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "supermem-bench: faultsweep: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(res)
	fmt.Printf("[faultsweep done in %s]\n\n", time.Since(start).Round(time.Millisecond))
	if jsonOut {
		a := faultArtifact{Experiment: "faultsweep", Seed: seed, Result: res}
		data, err := json.MarshalIndent(a, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "supermem-bench: encoding BENCH_faultsweep.json: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile("BENCH_faultsweep.json", append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "supermem-bench: writing BENCH_faultsweep.json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("[wrote BENCH_faultsweep.json]\n\n")
	}
	if strict {
		if v := res.StrictViolations(); len(v) > 0 {
			fmt.Fprintf(os.Stderr, "supermem-bench: faultsweep strict check FAILED:\n  %s\n", strings.Join(v, "\n  "))
			os.Exit(1)
		}
		fmt.Println("faultsweep strict check passed: zero silent corruptions under strong ECC; failing bank quarantined and remapped")
	}
}

type integrityArtifact struct {
	Experiment string                    `json:"experiment"`
	Result     *supermem.IntegrityResult `json:"result"`
}

// runIntegrity executes the integrity-tree experiment: the
// counter-attack detection grid (replays must land Detected-by-tree,
// never Silent) plus the tree write-amplification timing cells. The
// JSON artifact carries no wall-time or parallelism fields, so serial
// and parallel runs write byte-identical files.
func runIntegrity(parallel int, strict, jsonOut bool) {
	start := time.Now()
	res, err := supermem.IntegritySweep(supermem.IntegrityOpts{Parallel: parallel})
	if err != nil {
		fmt.Fprintf(os.Stderr, "supermem-bench: integrity: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(res)
	fmt.Printf("[integrity done in %s]\n\n", time.Since(start).Round(time.Millisecond))
	if jsonOut {
		a := integrityArtifact{Experiment: "integrity", Result: res}
		data, err := json.MarshalIndent(a, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "supermem-bench: encoding BENCH_integrity.json: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile("BENCH_integrity.json", append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "supermem-bench: writing BENCH_integrity.json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("[wrote BENCH_integrity.json]\n\n")
	}
	if strict {
		if v := res.StrictViolations(); len(v) > 0 {
			fmt.Fprintf(os.Stderr, "supermem-bench: integrity strict check FAILED:\n  %s\n", strings.Join(v, "\n  "))
			os.Exit(1)
		}
		fmt.Println("integrity strict check passed: every counter replay was caught by the tree; zero silent outcomes")
	}
}

// kvOpts assembles the KV experiment options from the -kv-* flags.
func kvOpts(shards string, keys, requests int, thetas, mix string, txBytes, scanLen int, uncore bool) (supermem.KVOpts, error) {
	ko := supermem.KVOpts{
		Keys:           keys,
		Requests:       requests,
		TxBytes:        txBytes,
		ScanLen:        scanLen,
		UncoreVariants: &uncore,
	}
	if shards != "" {
		for _, f := range strings.Split(shards, ",") {
			var n int
			if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &n); err != nil || n < 1 {
				return ko, fmt.Errorf("bad -kv-shards entry %q", f)
			}
			ko.Shards = append(ko.Shards, n)
		}
	}
	if thetas != "" {
		for _, f := range strings.Split(thetas, ",") {
			var t float64
			if _, err := fmt.Sscanf(strings.TrimSpace(f), "%g", &t); err != nil || t < 0 || t >= 1 {
				return ko, fmt.Errorf("bad -kv-skew entry %q (want [0,1))", f)
			}
			ko.Thetas = append(ko.Thetas, t)
		}
	}
	if mix != "" {
		parts := strings.Split(mix, ",")
		if len(parts) != 5 {
			return ko, fmt.Errorf("-kv-mix wants 5 comma-separated percentages (read,update,insert,delete,scan), got %q", mix)
		}
		for i, f := range parts {
			if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &ko.Mix[i]); err != nil {
				return ko, fmt.Errorf("bad -kv-mix entry %q", f)
			}
		}
	}
	return ko, nil
}

// kvArtifact is the machine-readable KV-serving record. Like the osiris
// artifact it carries no wall-time or parallelism fields, so the same
// options produce a byte-identical BENCH_kv.json at any -parallel
// setting and any worker schedule.
type kvArtifact struct {
	Experiment string             `json:"experiment"`
	Result     *supermem.KVResult `json:"result"`
}

// runKV executes the sharded KV-serving grid and returns its wall time
// in milliseconds for the perf trajectory.
func runKV(cfg supermem.Config, opts supermem.ExperimentOpts, ko supermem.KVOpts, jsonOut bool) int64 {
	start := time.Now()
	hits0, miss0 := supermem.TraceCacheStats()
	res, err := supermem.KVServe(cfg, opts, ko)
	if err != nil {
		fmt.Fprintf(os.Stderr, "supermem-bench: kv: %v\n", err)
		os.Exit(1)
	}
	wall := time.Since(start)
	fmt.Println(res)
	hits, miss := supermem.TraceCacheStats()
	fmt.Printf("[kv done in %s; trace cache %d hits / %d misses]\n\n",
		wall.Round(time.Millisecond), hits-hits0, miss-miss0)
	if jsonOut {
		a := kvArtifact{Experiment: "kv", Result: res}
		data, err := json.MarshalIndent(a, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "supermem-bench: encoding BENCH_kv.json: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile("BENCH_kv.json", append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "supermem-bench: writing BENCH_kv.json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("[wrote BENCH_kv.json]\n\n")
	}
	return wall.Milliseconds()
}

// mlpOpts assembles the MLP experiment options from the -mlp-* flags.
func mlpOpts(widths, mshrs, prefetch, workload string, txBytes int) (supermem.MLPOpts, error) {
	mo := supermem.MLPOpts{Workload: workload, TxBytes: txBytes}
	var err error
	if mo.Widths, err = intList("-mlp-widths", widths, 1); err != nil {
		return mo, err
	}
	if mo.MSHRs, err = intList("-mlp-mshrs", mshrs, 1); err != nil {
		return mo, err
	}
	if mo.PrefetchDegrees, err = intList("-mlp-prefetch", prefetch, 0); err != nil {
		return mo, err
	}
	return mo, nil
}

// intList parses a comma-separated integer flag value; "" returns nil
// (the experiment's default).
func intList(flagName, s string, min int) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &n); err != nil || n < min {
			return nil, fmt.Errorf("bad %s entry %q (want integers >= %d)", flagName, f, min)
		}
		out = append(out, n)
	}
	return out, nil
}

// mlpArtifact is the machine-readable MLP-experiment record. Like the
// kv artifact it carries no wall-time or parallelism fields, so the
// same options produce a byte-identical BENCH_mlp.json at any
// -parallel setting.
type mlpArtifact struct {
	Experiment string              `json:"experiment"`
	Result     *supermem.MLPResult `json:"result"`
}

// runMLP executes the core-model x scheme grid and returns its wall
// time in milliseconds for the perf trajectory.
func runMLP(cfg supermem.Config, opts supermem.ExperimentOpts, mo supermem.MLPOpts, jsonOut bool) int64 {
	start := time.Now()
	hits0, miss0 := supermem.TraceCacheStats()
	res, err := supermem.MLP(cfg, opts, mo)
	if err != nil {
		fmt.Fprintf(os.Stderr, "supermem-bench: mlp: %v\n", err)
		os.Exit(1)
	}
	wall := time.Since(start)
	fmt.Println(res)
	hits, miss := supermem.TraceCacheStats()
	fmt.Printf("[mlp done in %s; trace cache %d hits / %d misses]\n\n",
		wall.Round(time.Millisecond), hits-hits0, miss-miss0)
	if jsonOut {
		a := mlpArtifact{Experiment: "mlp", Result: res}
		data, err := json.MarshalIndent(a, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "supermem-bench: encoding BENCH_mlp.json: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile("BENCH_mlp.json", append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "supermem-bench: writing BENCH_mlp.json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("[wrote BENCH_mlp.json]\n\n")
	}
	return wall.Milliseconds()
}

// attackArtifact is the machine-readable attack-experiment record.
// Like the kv artifact it carries no wall-time or parallelism fields,
// so the same options produce a byte-identical BENCH_attack.json at
// any -parallel setting.
type attackArtifact struct {
	Experiment string                 `json:"experiment"`
	Result     *supermem.AttackResult `json:"result"`
}

// runAttack executes the attack x scheme x mitigation grid and returns
// its wall time in milliseconds for the perf trajectory. With strict
// set it exits non-zero when any attack did no damage unmitigated or
// any mitigation failed to measurably claw it back.
func runAttack(cfg supermem.Config, opts supermem.ExperimentOpts, ao supermem.AttackOpts, strict, jsonOut bool) int64 {
	start := time.Now()
	res, err := supermem.AttackSweep(cfg, opts, ao)
	if err != nil {
		fmt.Fprintf(os.Stderr, "supermem-bench: attack: %v\n", err)
		os.Exit(1)
	}
	wall := time.Since(start)
	fmt.Println(res)
	fmt.Printf("[attack done in %s]\n\n", wall.Round(time.Millisecond))
	if jsonOut {
		a := attackArtifact{Experiment: "attack", Result: res}
		data, err := json.MarshalIndent(a, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "supermem-bench: encoding BENCH_attack.json: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile("BENCH_attack.json", append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "supermem-bench: writing BENCH_attack.json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("[wrote BENCH_attack.json]\n\n")
	}
	if strict {
		if v := res.StrictViolations(); len(v) > 0 {
			fmt.Fprintf(os.Stderr, "supermem-bench: attack strict check FAILED:\n  %s\n", strings.Join(v, "\n  "))
			os.Exit(1)
		}
		fmt.Println("attack strict check passed: every attack did damage unmitigated and every mitigation measurably reduced it")
	}
	return wall.Milliseconds()
}

// traceLabel returns the trace cell selector, or "" when -events is
// off (so histogram-only runs buffer no events).
func traceLabel(events, cell string) string {
	if events == "" {
		return ""
	}
	return cell
}

// printHistograms renders the per-cell latency distributions -hist
// collected.
func printHistograms(cells []supermem.CellObs) {
	for _, c := range cells {
		fmt.Printf("latency histograms: %s tx=%dB wq=%d\n%s\n", c.Label, c.TxBytes, c.WriteQueue, c.Hist)
	}
}

// writeTrace saves an experiment's traced cells as
// <base minus extension>_<experiment>.json trace_event files.
func writeTrace(base, expName string, c *supermem.ObsCollector) {
	sections := c.TraceSections()
	if len(sections) == 0 {
		return
	}
	exp := strings.NewReplacer("/", "_", " ", "_").Replace(expName)
	path := strings.TrimSuffix(base, ".json") + "_" + exp + ".json"
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "supermem-bench: %v\n", err)
		os.Exit(1)
	}
	if err := supermem.WriteTrace(f, sections...); err != nil {
		f.Close()
		fmt.Fprintf(os.Stderr, "supermem-bench: writing %s: %v\n", path, err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "supermem-bench: writing %s: %v\n", path, err)
		os.Exit(1)
	}
	kept, dropped := 0, 0
	for _, s := range sections {
		k, d := s.Rec.TraceStats()
		kept += k
		dropped += d
	}
	if dropped > 0 {
		fmt.Printf("[wrote %s: %d events (%d dropped; raise -events-max); open at ui.perfetto.dev]\n\n", path, kept, dropped)
	} else {
		fmt.Printf("[wrote %s: %d events; open at ui.perfetto.dev]\n\n", path, kept)
	}
}

// writeArtifact saves one experiment's JSON record as
// BENCH_<name>.json, with path separators in the name flattened.
func writeArtifact(a artifact) {
	name := strings.NewReplacer("/", "_", " ", "_").Replace(a.Experiment)
	path := fmt.Sprintf("BENCH_%s.json", name)
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "supermem-bench: encoding %s: %v\n", path, err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "supermem-bench: writing %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("[wrote %s]\n\n", path)
}
