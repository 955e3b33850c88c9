package bench

import (
	"fmt"
	"reflect"
	"testing"

	"supermem/internal/config"
	"supermem/internal/core"
	"supermem/internal/nvm"
	"supermem/internal/stats"
	"supermem/internal/trace"
	"supermem/internal/workload"
)

// TestFastForwardMatchesDetailedWarmup is the differential grid for the
// core's functional fast-forward of single-core warmup prefixes: every
// cell's metrics and bank statistics must equal those of a run that
// simulates its whole warmup in detail. The detailed path is forced by
// hiding the recorded slice behind a plain trace.Source. A cell whose
// convergence probe fails is simulated in detail either way, so each
// group must also fast-forward at least four in five of its cells for
// the grid to test anything.
func TestFastForwardMatchesDetailedWarmup(t *testing.T) {
	if testing.Short() {
		t.Skip("differential grid replays every warmup in detail")
	}
	base := config.Default()
	wq := func(n int) config.Config {
		c := base
		c.WriteQueueEntries = n
		return c
	}
	type group struct {
		name      string
		txBytes   int
		footprint uint64
		cfg       config.Config
		schemes   []config.Scheme
	}
	// A 128-entry queue needs a four times longer detailed tail, hence
	// the larger footprint.
	groups := []group{
		{"fig13/256B", 256, 1 << 20, base, config.AllSchemes()},
		{"fig13/1024B", 1024, 1 << 20, base, config.AllSchemes()},
		{"fig13/4096B", 4096, 1 << 20, base, config.AllSchemes()},
		{"fig16/wq8", 1024, 1 << 20, wq(8), []config.Scheme{config.WT, config.SuperMem}},
		{"fig16/wq128", 1024, 2 << 20, wq(128), []config.Scheme{config.WT, config.SuperMem}},
		{"osiris", 1024, 1 << 20, base, []config.Scheme{config.Osiris}},
		{"sca", 1024, 1 << 20, base, []config.Scheme{config.SCA}},
	}
	// Traces depend on the workload, transaction size and footprint only.
	type traceKey struct {
		wl        string
		txBytes   int
		footprint uint64
	}
	recorded := map[traceKey][]trace.Op{}
	for _, g := range groups {
		o := Opts{Transactions: 20, FootprintBytes: g.footprint, Seed: 1}
		cells, fastForwarded := 0, 0
		for _, wl := range workload.Names {
			key := traceKey{wl, g.txBytes, g.footprint}
			ops, ok := recorded[key]
			if !ok {
				srcs, err := BuildSources(o.spec(base, wl, config.Unsec, g.txBytes, 1))
				if err != nil {
					t.Fatal(err)
				}
				ops = trace.Record(srcs[0])
				recorded[key] = ops
			}
			for _, sch := range g.schemes {
				spec := o.spec(g.cfg, wl, sch, g.txBytes, 1)
				name := fmt.Sprintf("%s/%s/%v", g.name, wl, sch)
				ffM, ffB, n := runOps(t, spec, trace.NewSliceSource(ops))
				detM, detB, _ := runOps(t, spec, struct{ trace.Source }{trace.NewSliceSource(ops)})
				if ffM != detM {
					t.Errorf("%s: metrics differ\nfast-forward: %+v\ndetailed:     %+v", name, ffM, detM)
				}
				if !reflect.DeepEqual(ffB, detB) {
					t.Errorf("%s: bank stats differ\nfast-forward: %+v\ndetailed:     %+v", name, ffB, detB)
				}
				cells++
				if n > 0 {
					fastForwarded++
				} else {
					t.Logf("%s: simulated in detail", name)
				}
			}
		}
		if fastForwarded*5 < cells*4 {
			t.Errorf("%s: only %d of %d cells fast-forwarded", g.name, fastForwarded, cells)
		}
	}
}

// runOps runs one cell over src and returns its metrics, bank
// statistics and how many warmup ops it fast-forwarded.
func runOps(t *testing.T, spec Spec, src trace.Source) (stats.Metrics, []nvm.BankStats, int) {
	t.Helper()
	sys, err := core.NewSystem(spec.config())
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Run([]trace.Source{src})
	if err != nil {
		t.Fatal(err)
	}
	return m, sys.BankStats(), sys.FastForwardedOps()
}
