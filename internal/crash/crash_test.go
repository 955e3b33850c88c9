package crash

import (
	"testing"

	"supermem/internal/machine"
	"supermem/internal/workload"
)

func TestRunWithoutCrashVerifies(t *testing.T) {
	for _, wl := range workload.Names {
		p := Params{Mode: machine.WTRegister, Workload: wl, Steps: 10}
		res, err := Run(p, 1<<30) // crash point never reached
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if res.Crashed {
			t.Fatalf("%s: phantom crash", wl)
		}
		if !res.Consistent {
			t.Fatalf("%s: clean run inconsistent: %s", wl, res.Detail)
		}
	}
}

// Every persistence-step crash point, tested exhaustively: SuperMem
// (WT with the ADR register) leaves every workload recoverable to a
// transaction boundary, as do the battery-backed write-back cache and
// Osiris (which recovers its relaxed counters by probing); a write-back
// counter cache without battery corrupts some points (Table 1's No
// rows), observed through real decryption failures.
func TestExhaustiveCrashPoints(t *testing.T) {
	type tc struct {
		mode     machine.Mode
		workload string
		steps    int
		wantOK   bool
	}
	var cases []tc
	for _, wl := range workload.Names {
		cases = append(cases, tc{machine.WTRegister, wl, 6, true})
	}
	cases = append(cases,
		tc{machine.WBNoBattery, "array", 6, false},
		tc{machine.WBBattery, "array", 5, true},
		tc{machine.Osiris, "queue", 5, true},
	)
	for _, c := range cases {
		t.Run(c.mode.String()+"/"+c.workload, func(t *testing.T) {
			res, err := Fuzz(FuzzParams{Workload: c.workload, Steps: c.steps, Parallel: 1, Modes: []machine.Mode{c.mode}})
			if err != nil {
				t.Fatal(err)
			}
			v := res.Verdicts[0]
			if v.Tested != v.TotalPoints || v.Crashed == 0 {
				t.Fatalf("tested %d of %d points, %d crashed — want every point exercised", v.Tested, v.TotalPoints, v.Crashed)
			}
			if v.Consistent() != c.wantOK {
				if c.wantOK {
					r := v.Inconsistent[0]
					t.Fatalf("crash@%d after %d txs: %s", r.CrashStep, r.CompletedSteps, r.Detail)
				}
				t.Fatal("survived every crash point — the vulnerability is not modelled")
			}
		})
	}
}

func TestReplayDeterminism(t *testing.T) {
	p := Params{Mode: machine.WTRegister, Workload: "rbtree", Steps: 8}.withDefaults()
	w1, _, err := replay(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	w2, _, err := replay(p, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Two replays of the same seed must agree on their own backends.
	if w1.Name() != w2.Name() {
		t.Fatal("replay built different workloads")
	}
}

func TestCountPersistsPositive(t *testing.T) {
	p := Params{Mode: machine.WTRegister, Workload: "queue", Steps: 3}.withDefaults()
	n, err := countPersists(p)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("countPersists = %d", n)
	}
}

func TestBadWorkload(t *testing.T) {
	if _, err := Run(Params{Mode: machine.WTRegister, Workload: "nope"}, 0); err == nil {
		t.Fatal("Run accepted unknown workload")
	}
}
