package bench

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"supermem/internal/config"
	"supermem/internal/core"
	"supermem/internal/fault"
	"supermem/internal/nvm"
	"supermem/internal/stats"
	"supermem/internal/trace"
	"supermem/internal/workload"
)

// digestCell is one timing simulation of the exactness guard.
type digestCell struct {
	name string
	spec Spec
	// detailed hides the recording behind a plain trace.Source, which
	// makes the core simulate its whole warmup in detail.
	detailed bool
	// wantFF requires the cell to fast-forward its warmup, so the guard
	// keeps covering that path.
	wantFF bool
	// faults, when non-nil, is the cell's bank-fault schedule.
	faults *fault.Plan
}

// digestCells is a reduced grid over every timing path of the DES: the
// in-order core fast-forwarded and in detail, both Figure 16 queue
// extremes, CWC on and off, XBank, Osiris, the integrity trees, 4 and 8
// in-order programs, the 4-core OoO model with MSHRs and prefetch,
// per-core write queues and the counter-cache partition, read faults
// with retry and quarantine, wear rotation and the overflow throttle.
func digestCells() []digestCell {
	base := config.Default()
	inorder := func(wl string, s config.Scheme, cfg config.Config) Spec {
		return Spec{Base: cfg, Workload: wl, Scheme: s, TxBytes: 1024, Transactions: 20,
			Cores: 1, FootprintBytes: 1 << 20, Seed: 1}
	}
	var cells []digestCell
	for _, wl := range []string{"btree", "rbtree"} {
		for _, s := range config.AllSchemes() {
			cells = append(cells, digestCell{name: "ff/" + wl + "/" + s.String(), spec: inorder(wl, s, base), wantFF: true})
		}
	}
	for _, wl := range []string{"btree", "hashtable", "rbtree"} {
		for _, s := range []config.Scheme{config.Unsec, config.WT, config.WTCWC, config.WTXBank, config.SuperMem} {
			cells = append(cells, digestCell{name: "detailed/" + wl + "/" + s.String(), spec: inorder(wl, s, base), detailed: true})
		}
	}
	for _, n := range []int{8, 128} {
		cfg := base
		cfg.WriteQueueEntries = n
		for _, s := range []config.Scheme{config.WT, config.SuperMem} {
			cells = append(cells, digestCell{name: fmt.Sprintf("fig16/wq%d/%v", n, s), spec: inorder("hashtable", s, cfg)})
		}
	}
	for _, s := range []config.Scheme{config.SCA, config.Osiris, config.BMT, config.TriadNVM, config.Phoenix} {
		cells = append(cells, digestCell{name: "ext/btree/" + s.String(), spec: inorder("btree", s, base), detailed: true})
	}
	fig14 := inorder("array", config.SuperMem, base)
	fig14.Cores = 4
	cells = append(cells, digestCell{name: "fig14/4p/SuperMem", spec: fig14})
	// With 8 programs one program's counters share a bank with
	// another's data, so lingering CWC counters sit beyond the window
	// on banks with data pending.
	for _, c := range []struct {
		wl string
		s  config.Scheme
	}{{"btree", config.SuperMem}, {"hashtable", config.WTCWC}} {
		spec := inorder(c.wl, c.s, base)
		spec.Cores = 8
		cells = append(cells, digestCell{name: "fig14/8p/" + c.wl + "/" + c.s.String(), spec: spec})
	}

	// Caches shrunk below the 512 KiB shard keyspaces, so reads miss
	// to NVM through the MSHRs and the prefetcher.
	ooo := base
	ooo.OoOWidth, ooo.MSHREntries, ooo.PrefetchDegree = 4, 8, 4
	ooo.L1.SizeBytes, ooo.L2.SizeBytes, ooo.L3.SizeBytes, ooo.CounterCache.SizeBytes = 4<<10, 16<<10, 64<<10, 4<<10
	kv := func(s config.Scheme, cfg config.Config) Spec {
		return Spec{Base: cfg, Workload: "kv", Scheme: s, TxBytes: 256, Transactions: 256, Cores: 4,
			FootprintBytes: 8 << 20, Seed: 1, CoreModel: config.CoreOoO,
			KV: workload.KVConfig{Keys: 2048, Theta: 0.99}}
	}
	for _, s := range []config.Scheme{config.Unsec, config.WT, config.SuperMem, config.Phoenix} {
		cells = append(cells, digestCell{name: "kv/" + s.String(), spec: kv(s, ooo)})
	}
	uncore := ooo
	uncore.PerCoreWriteQueues, uncore.CounterCachePartition = true, true
	cells = append(cells, digestCell{name: "kv-uncore/SuperMem", spec: kv(config.SuperMem, uncore)})

	faulty := base
	faulty.ReadRetryLimit, faulty.ReadRetryBackoff, faulty.BankQuarantineThreshold = 3, 16, 4
	quarantine := Spec{Base: faulty, Workload: "array", Scheme: config.SuperMem, TxBytes: 1024,
		Transactions: 50, Warmup: 8, Cores: 1, FootprintBytes: 1 << 20, Seed: 1}
	cells = append(cells, digestCell{name: "faults/quarantine", spec: quarantine, faults: &fault.Plan{Injections: []fault.Injection{
		{Kind: fault.BankFault, Step: 0, Target: 0, Arg: 1 << 30},
		{Kind: fault.BankLatency, Step: 16, Target: 2, Arg: 64 | 300<<32},
	}}})
	transient := faulty
	transient.BankQuarantineThreshold = 0
	retry := quarantine
	retry.Base = transient
	cells = append(cells, digestCell{name: "faults/retry", spec: retry, faults: &fault.Plan{Injections: []fault.Injection{
		{Kind: fault.BankFault, Step: 40, Target: 1, Arg: 6},
		{Kind: fault.BankFault, Step: 200, Target: 0, Arg: 2},
	}}})

	wear := base
	wear.WearRemapPeriod = 64
	dos := Spec{Base: wear, Workload: "array", Scheme: config.SuperMem, TxBytes: 256, Transactions: 64,
		Warmup: 8, Cores: 2, FootprintBytes: 64 << 10, Seed: 1,
		CoreWorkloads: [4]string{"hotbank"},
		Attack:        workload.AttackConfig{HotPages: 64, FlushesPerStep: 64}}
	cells = append(cells, digestCell{name: "attack/wear", spec: dos})
	throttle := base
	throttle.OverflowThrottlePeriod, throttle.OverflowThrottleBurst = 100_000, 1
	cells = append(cells, digestCell{name: "attack/throttle", spec: Spec{Base: throttle, Workload: "ctrhammer",
		Scheme: config.SuperMem, TxBytes: 256, Transactions: 64, Warmup: 4, Cores: 1, FootprintBytes: 1 << 20,
		Seed: 1, Attack: workload.AttackConfig{HotPages: 68}}})
	return cells
}

// digestResult is everything a cell's digest covers.
type digestResult struct {
	m      stats.Metrics
	banks  []nvm.BankStats
	events uint64
	ffOps  int
}

func (r digestResult) digest() string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v\n%+v\n%d", r.m, r.banks, r.events)))
	return fmt.Sprintf("%x", sum[:8])
}

func runDigestCell(t *testing.T, c digestCell, recs map[string][]trace.Source) digestResult {
	t.Helper()
	key := keyOf(c.spec)
	srcs, ok := recs[key]
	if !ok {
		var err error
		if srcs, err = BuildSources(c.spec); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		recs[key] = srcs
	}
	sources := make([]trace.Source, len(srcs))
	for i, src := range srcs {
		// Each run replays its own copy of the recording.
		s := trace.NewSliceSource(src.(*trace.SliceSource).Remaining())
		if c.detailed {
			sources[i] = struct{ trace.Source }{s}
		} else {
			sources[i] = s
		}
	}
	sys, err := core.NewSystem(c.spec.config())
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if c.faults != nil {
		sys.SetBankFaults(fault.NewBankFaults(*c.faults, c.spec.Base.Banks))
	}
	m, err := sys.Run(sources)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return digestResult{m: m, banks: sys.BankStats(), events: sys.EventsFired(), ffOps: sys.FastForwardedOps()}
}

// timingDigests pins each digest cell's metrics, per-bank statistics
// and engine events fired. A change that claims to leave every
// simulated cycle unchanged must leave this table unchanged; a change
// that moves results on purpose regenerates it from the test's failure
// output and says why.
var timingDigests = map[string]string{
	"ff/btree/Unsec":              "eefa460551fbd3d2",
	"ff/btree/WB":                 "6825faad516f47b9",
	"ff/btree/WT":                 "3ca54aceeadbde77",
	"ff/btree/WT+CWC":             "aa3c800abf85e0b3",
	"ff/btree/WT+XBank":           "d5ca41a95243262a",
	"ff/btree/SuperMem":           "034cedfd363e5b43",
	"ff/rbtree/Unsec":             "c1780a7153db61ac",
	"ff/rbtree/WB":                "f0e876082a21b7f3",
	"ff/rbtree/WT":                "2103347f5649825c",
	"ff/rbtree/WT+CWC":            "31fc3fcf6f55a7d1",
	"ff/rbtree/WT+XBank":          "28740dfe76199728",
	"ff/rbtree/SuperMem":          "8c80d24dea18b898",
	"detailed/btree/Unsec":        "5db972858fcb7c6f",
	"detailed/btree/WT":           "633160da001c341f",
	"detailed/btree/WT+CWC":       "739017dd85cc4657",
	"detailed/btree/WT+XBank":     "3abba496996bb3dd",
	"detailed/btree/SuperMem":     "b860a30f2b9d6418",
	"detailed/hashtable/Unsec":    "e14dddddfa3fc581",
	"detailed/hashtable/WT":       "b07172bd796554f5",
	"detailed/hashtable/WT+CWC":   "e54cfc2ba21924ff",
	"detailed/hashtable/WT+XBank": "06200ca5e4c5d412",
	"detailed/hashtable/SuperMem": "2ad6385a0d92fb3c",
	"detailed/rbtree/Unsec":       "2864c8a2e26addf8",
	"detailed/rbtree/WT":          "dd2b616518ff4c5f",
	"detailed/rbtree/WT+CWC":      "9253104c8c4b1e29",
	"detailed/rbtree/WT+XBank":    "73abcd555992e8f7",
	"detailed/rbtree/SuperMem":    "dd3f6acdb50d2f3b",
	"fig16/wq8/WT":                "802254a64e3567d2",
	"fig16/wq8/SuperMem":          "5f6e5227d34248d3",
	"fig16/wq128/WT":              "874fe2d20d30b8d0",
	"fig16/wq128/SuperMem":        "cfdac08ba13708e5",
	"ext/btree/SCA":               "633160da001c341f",
	"ext/btree/Osiris":            "c3d7e6e7cdd3cf36",
	"ext/btree/BMT":               "d219f460c5a9053c",
	"ext/btree/Triad-NVM":         "edeb4686618ccce6",
	"ext/btree/Phoenix":           "a8b26a761fc038aa",
	"fig14/4p/SuperMem":           "89969c2fff8d5e07",
	"fig14/8p/btree/SuperMem":     "ef73cc55d4f21649",
	"fig14/8p/hashtable/WT+CWC":   "8de03de3e7acb783",
	"kv/Unsec":                    "88a7e731fec29d09",
	"kv/WT":                       "6dcc78cc82c5ca5d",
	"kv/SuperMem":                 "352b0819b508adf3",
	"kv/Phoenix":                  "1a950a46a9748763",
	"kv-uncore/SuperMem":          "b699f9738c77b84e",
	"faults/quarantine":           "c04ed0faa30da08c",
	"faults/retry":                "99ad700a45b29ba8",
	"attack/wear":                 "2164928fe8029ea8",
	"attack/throttle":             "66824b26c08a278a",
}

// TestTimingDigest is the exactness guard of the timing DES: every
// digest cell must reproduce its pinned digest.
func TestTimingDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a reduced grid of full timing simulations")
	}
	recs := map[string][]trace.Source{}
	results := map[string]digestResult{}
	var table strings.Builder
	mismatch := false
	for _, c := range digestCells() {
		r := runDigestCell(t, c, recs)
		results[c.name] = r
		if c.wantFF && r.ffOps == 0 {
			t.Errorf("%s: warmup was not fast-forwarded", c.name)
		}
		if c.detailed && r.ffOps != 0 {
			t.Errorf("%s: fast-forwarded %d ops, want a detailed run", c.name, r.ffOps)
		}
		if r.events == 0 {
			t.Errorf("%s: no events fired", c.name)
		}
		got := r.digest()
		fmt.Fprintf(&table, "\t%q: %q,\n", c.name, got)
		if want := timingDigests[c.name]; got != want {
			mismatch = true
			t.Errorf("%s: digest %s, want %s (metrics %+v, events %d)", c.name, got, want, r.m, r.events)
		}
	}
	if len(results) != len(timingDigests) {
		mismatch = true
		t.Errorf("grid has %d cells, timingDigests pins %d", len(results), len(timingDigests))
	}
	if mismatch {
		t.Logf("digests of this build:\n%s", table.String())
	}
}
