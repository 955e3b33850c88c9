// Command perfbench is the repository's benchmark. It runs one
// workload per process and prints its metrics, ending with one JSON
// line:
//
//	go run . --workload fig13-1k --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it times the workload untraced and reports the
// end-to-end metrics; with --trace 1 it makes one untraced and one
// traced pass and reports the per-layer metrics, writing the spans to
// .bench_out/. Every simulated result is checked; failed cells are
// counted in the JSON's "failed".
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics --trace 0 reports, gated by BENCHMARK.json.
// Every workload reports all of them, so each is defined for all. Wall
// time, the work throughputs and the live and peak memory are printed
// beside them, not gated.
var endToEnd = []metricDef{
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
}

// perLayer are the metrics --trace 1 reports. A workload that does not
// exercise a layer reports 0 for it (crash-fuzz never runs the DES;
// the DES workloads never crash a machine).
var perLayer = []metricDef{
	{"workload.record_s", "s"},
	{"workload.record_ns_per_op", "ns/op"},
	{"workload.ops_warmup", "count"},
	{"workload.ops_measured", "count"},
	{"core.run_s", "s"},
	{"core.run_s.unsec", "s"},
	{"core.run_s.wb", "s"},
	{"core.run_s.wt", "s"},
	{"core.run_s.wt_cwc", "s"},
	{"core.run_s.wt_xbank", "s"},
	{"core.run_s.supermem", "s"},
	{"core.run_s.phoenix", "s"},
	{"core.ns_per_op", "ns/op"},
	{"core.new_system_s", "s"},
	{"core.warmup_replay_s", "s"},
	{"core.measured_s", "s"},
	{"core.sim_cycles", "cycles"},
	{"core.read_stall_cycles", "cycles"},
	{"core.mshr_merges", "count"},
	{"core.mshr_full_stalls", "count"},
	{"core.prefetch_useful_ratio", "ratio"},
	{"memctrl.nvm_writes", "count"},
	{"memctrl.coalesced_writes", "count"},
	{"memctrl.coalesce_ratio", "ratio"},
	{"memctrl.wq_stall_cycles", "cycles"},
	{"cache.ctr_hit_rate", "ratio"},
	{"cache.ctr_misses", "count"},
	{"nvm.reads", "count"},
	{"nvm.max_bank_busy_share", "ratio"},
	{"integrity.tree_node_writes", "count"},
	{"integrity.tree_coalesced_ratio", "ratio"},
	{"integrity.run_cost_ratio", "ratio"},
	{"crash.reference_s", "s"},
	{"crash.mode_s.unencrypted", "s"},
	{"crash.mode_s.wt_register", "s"},
	{"crash.mode_s.phoenix", "s"},
	{"machine.encrypt_cost_ratio", "ratio"},
	{"machine.tree_cost_ratio", "ratio"},
	{"crash.points_tested", "count"},
	{"crash.nested_points", "count"},
	{"crash.ns_per_point", "ns"},
	{"bench.trace_overhead_ratio", "ratio"},
	{"bench.self_s", "s"},
}

// metrics collects one run's values by name.
type metrics map[string]float64

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// resultFor renders the catalog's metrics. A name the run set outside
// the catalog is a bug; so is a missing end-to-end metric. A missing
// per-layer metric is a layer the workload does not exercise.
func resultFor(r *report, defs []metricDef, zeroMissing bool) (result, error) {
	known := make(map[string]bool, len(defs))
	out := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]jsonMetric, len(defs))}
	for _, d := range defs {
		known[d.name] = true
		v, ok := r.metrics[d.name]
		if !ok && !zeroMissing {
			return result{}, fmt.Errorf("metric %s not measured", d.name)
		}
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	for name := range r.metrics {
		if !known[name] {
			return result{}, fmt.Errorf("metric %s is not in the catalog", name)
		}
	}
	return out, nil
}

// hostFingerprint identifies the machine and toolchain a result came
// from, so results are only compared on like hosts.
func hostFingerprint() map[string]any {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
}

func main() {
	// The simulator runs on one goroutine (Parallel = 1), so the runtime
	// gets one CPU as well and the garbage collector runs inline. With a
	// second CPU the collector wakes it for each of the thousands of
	// cycles a crash-fuzz pass allocates through; on a shared VM that
	// doubled crash-fuzz's time and made it swing by 30% between runs.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "measurement budget in seconds (--trace 0)")
	traceFlag := fs.Int("trace", 0, "1 = traced per-layer run, 0 = timed end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var def *workloadDef
	var names []string
	for i := range workloads {
		names = append(names, workloads[i].name)
		if workloads[i].name == *name {
			def = &workloads[i]
		}
	}
	if def == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}

	host := hostFingerprint()
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", def.name, *seed, *seconds, *traceFlag)
	fmt.Printf("workload %s: %s\n", def.name, def.why)
	fmt.Printf("host cpu=%q nproc=%d gomaxprocs=%d go=%s\n", host["cpu"], host["nproc"], host["gomaxprocs"], host["go"])

	var tr *tracer
	defs, zeroMissing := endToEnd, false
	if *traceFlag == 1 {
		tr = newTracer()
		defs, zeroMissing = perLayer, true
	}
	rep, err := def.run(*seed, tr, time.Duration(*seconds)*time.Second)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
		return 1
	}
	res, err := resultFor(rep, defs, zeroMissing)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", def.name, err)
		return 1
	}
	if tr != nil {
		path := fmt.Sprintf(".bench_out/spans-%s-seed%d.json", def.name, *seed)
		header := map[string]any{"workload": def.name, "seed": *seed, "host": host}
		if err := tr.write(path, header); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Printf("spans written to %s (%d spans)\n", path, len(tr.spans))
	}
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("metric %-32s %.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}
