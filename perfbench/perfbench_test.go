package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"supermem/internal/bench"
	"supermem/internal/config"
	"supermem/internal/crash"
)

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4) and
	// statistics.median(xs).
	cases := []struct {
		xs         []float64
		q1, md, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 9, 3, 7}, 2, 5, 8},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{2.5, 1.5, 9.25, 4, 4, 8, 1}, 1.5, 4, 8},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		s := summarize(c.xs)
		if s.N != len(c.xs) || s.Q1 != c.q1 || s.Median != c.md || s.Q3 != c.q3 {
			t.Errorf("summarize(%v) = %+v, want n=%d q1=%v median=%v q3=%v", c.xs, s, len(c.xs), c.q1, c.md, c.q3)
		}
		least := c.xs[0]
		for _, x := range c.xs {
			least = min(least, x)
		}
		if s.Min != least {
			t.Errorf("summarize(%v).Min = %v, want %v", c.xs, s.Min, least)
		}
	}
	if s := summarize(nil); s.N != 0 || s.Median != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

func TestRatiosAgainstTheirBase(t *testing.T) {
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio over a zero base = %v, want 0", got)
	}
	if got := failRatio(0, 30); got != 0 {
		t.Errorf("failRatio(0, 30) = %v", got)
	}
	if got := failRatio(3, 60); got != 0.05 {
		t.Errorf("failRatio(3, 60) = %v", got)
	}
	if got := failRatio(0, 0); got != 0 {
		t.Errorf("failRatio with nothing attempted = %v", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "bench.pass", Parent: -1, StartNs: 0, EndNs: 10e9},
		{Name: "bench.cell", Cell: "a", Parent: 0, StartNs: 1e9, EndNs: 5e9},
		{Name: "core.run", Cell: "a", Parent: 1, StartNs: 2e9, EndNs: 4e9},
		{Name: "bench.cell", Cell: "b", Parent: 0, StartNs: 5e9, EndNs: 9e9},
		{Name: "core.run", Cell: "b", Parent: 3, StartNs: 5e9, EndNs: 9e9},
	}}
	self := tr.selfTimes()
	want := map[string]float64{"bench.pass": 2, "bench.cell": 2, "core.run": 6}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %v, want %v", name, self[name], w)
		}
	}
	if got := tr.total("core.run", func(c string) bool { return c == "a" }); got != 2 {
		t.Errorf("total(core.run, a) = %v, want 2", got)
	}
	var nilTracer *tracer
	if sp := nilTracer.begin("x", "", -1); sp != -1 {
		t.Errorf("nil tracer begin = %d", sp)
	}
	nilTracer.end(-1)
}

// runDirect runs a DES job's set-up and one untraced pass.
func runDirect(t *testing.T, j *desJob) []desResult {
	t.Helper()
	if err := j.setup(nil, -1); err != nil {
		t.Fatal(err)
	}
	rs := make([]desResult, len(j.cells))
	for i := range j.cells {
		r, err := j.runCell(i, nil, -1)
		if err != nil {
			t.Fatal(err)
		}
		rs[i] = r
	}
	for i, err := range j.check(rs) {
		if err != nil {
			t.Errorf("%s: %v", j.cells[i].id, err)
		}
	}
	return rs
}

// runnerMetrics runs the job's specs through bench.Runner, the path the
// figure functions use.
func runnerMetrics(t *testing.T, j *desJob) []desResult {
	t.Helper()
	cells := make([]bench.Cell, len(j.cells))
	for i, c := range j.cells {
		cells[i] = bench.Cell{Spec: c.spec}
	}
	ms, err := bench.NewRunner(1).RunCells(cells)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]desResult, len(ms))
	for i, m := range ms {
		out[i].m = m
	}
	return out
}

func TestFig13CellsMatchBenchFig13(t *testing.T) {
	const tx, footprint = 5, 64 << 10
	j := fig13Job(3, tx, footprint)
	rs := runDirect(t, j)
	ref := runnerMetrics(t, j)
	tab, err := bench.Fig13(config.Default(), fig13TxBytes, bench.Opts{Transactions: tx, FootprintBytes: footprint, Seed: 3, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range j.cells {
		if rs[i].m != ref[i].m {
			t.Errorf("%s: direct metrics %+v, runner %+v", c.id, rs[i].m, ref[i].m)
		}
		if got := tab.Cell(c.spec.Workload, c.spec.Scheme.String()); got != rs[i].m.AvgTxCycles() {
			t.Errorf("%s: Fig13 latency %v, direct %v", c.id, got, rs[i].m.AvgTxCycles())
		}
	}
}

func TestKVCellsMatchBenchKVServe(t *testing.T) {
	const keys, requests = 512, 64
	j := kvJob(3, keys, requests)
	rs := runDirect(t, j)
	ref := runnerMetrics(t, j)
	off := false
	res, err := bench.KVServe(kvBase(), bench.Opts{Transactions: requests, FootprintBytes: kvFootprint, Seed: 3, Parallel: 1}, bench.KVOpts{
		Shards:         []int{kvShards},
		Schemes:        kvSchemes,
		Thetas:         []float64{kvTheta},
		Keys:           keys,
		Requests:       requests,
		TxBytes:        kvTxBytes,
		UncoreVariants: &off,
		CoreModel:      config.CoreOoO,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(j.cells) {
		t.Fatalf("KVServe gave %d cells, want %d", len(res.Cells), len(j.cells))
	}
	for i, c := range j.cells {
		m := rs[i].m
		if m != ref[i].m {
			t.Errorf("%s: direct metrics %+v, runner %+v", c.id, m, ref[i].m)
		}
		kc := res.Cells[i]
		if kc.Scheme != c.spec.Scheme.String() || kc.Requests != m.Transactions || kc.AvgCycles != m.AvgTxCycles() || kc.CtrHitRate != m.CtrCacheHitRate() {
			t.Errorf("%s: KVServe cell %+v, direct requests=%d avg=%v hit=%v", c.id, kc, m.Transactions, m.AvgTxCycles(), m.CtrCacheHitRate())
		}
	}
}

func TestCrashCellsMatchOneAllModeFuzz(t *testing.T) {
	j := crashFuzzJob(2)
	j.cells = j.cells[:len(crash.AllModes)] // the first workload's modes
	if err := j.setup(nil, -1); err != nil {
		t.Fatal(err)
	}
	vs := make([]crash.ModeVerdict, len(j.cells))
	for i := range j.cells {
		v, err := j.runCell(i, nil, -1)
		if err != nil {
			t.Fatal(err)
		}
		vs[i] = v
	}
	for i, err := range j.check(vs) {
		if err != nil {
			t.Errorf("%s: %v", j.cells[i].id, err)
		}
	}
	fp := j.cells[0].fp
	fp.Modes = nil
	all, err := crash.Fuzz(fp)
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Verdicts) != len(vs) {
		t.Fatalf("all-mode fuzz gave %d verdicts, want %d", len(all.Verdicts), len(vs))
	}
	for i, v := range all.Verdicts {
		if !reflect.DeepEqual(v, vs[i]) {
			t.Errorf("mode %s: all-mode verdict differs from the per-mode cell", v.Name)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric and workload names
// the program prints in step with the repository's BENCHMARK.json.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}
