package crash

import (
	"reflect"
	"testing"

	"supermem/internal/machine"
	"supermem/internal/pmem"
	"supermem/internal/workload"
)

// Fuzz forks every crash point off one execution per mode. These tests
// hold it to the per-point definition: a fresh run with the crash armed
// (Run/RunNested), a separate measurement of the recovery path
// (RecoveryCost) and per-point shrink probes must produce the very same
// FuzzResult — verdicts, nested counts, recovery probes and the
// minimized failure with its divergent lines.

// referenceProfile measures a crash-free run's persist count and
// commit-stage starts without the crash-point hook.
func referenceProfile(t *testing.T, p Params) (int, []int) {
	t.Helper()
	m, err := machine.New(p.Mode, p.Key)
	if err != nil {
		t.Fatal(err)
	}
	w, tm, err := build(p, m)
	if err != nil {
		t.Fatal(err)
	}
	base := m.Persists()
	var starts []int
	tm.StageHook = func(pmem.Stage) { starts = append(starts, m.Persists()-base) }
	for i := 0; i < p.Steps; i++ {
		if err := w.Step(tm); err != nil {
			t.Fatal(err)
		}
	}
	return m.Persists() - base, starts
}

// referenceShrink is shrink with every probe a fresh per-point run.
func referenceShrink(t *testing.T, p Params, fail Result) *Shrink {
	t.Helper()
	sh := &Shrink{CrashStep: fail.CrashStep, RecoveryCrashStep: -1, Detail: fail.Detail}
	search := func(hi int, probe func(int) (Result, error)) int {
		lo := 0
		for lo < hi {
			mid := lo + (hi-lo)/2
			sh.Probes++
			res, err := probe(mid)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Consistent {
				hi = mid
				sh.Detail = res.Detail
			} else {
				lo = mid + 1
			}
		}
		return hi
	}
	if fail.RecoveryCrashStep >= 0 {
		sh.RecoveryCrashStep = search(fail.RecoveryCrashStep, func(j int) (Result, error) { return RunNested(p, fail.CrashStep, j) })
	} else {
		sh.CrashStep = search(fail.CrashStep, func(k int) (Result, error) { return Run(p, k) })
	}
	res, r, err := runAndRecover(p, sh.CrashStep, sh.RecoveryCrashStep, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Consistent {
		if sh.Detail == "" {
			sh.Detail = res.Detail
		}
		_, tb, err := replay(p, res.CompletedSteps)
		if err != nil {
			t.Fatal(err)
		}
		sh.Diffs = diffLines(r, tb)
	}
	return sh
}

// referenceFuzz is the per-point fuzzer: every crash point re-runs the
// workload from scratch.
func referenceFuzz(t *testing.T, fp FuzzParams) *FuzzResult {
	t.Helper()
	fp = fp.withDefaults()
	res := &FuzzResult{Params: fp}
	for _, mode := range fp.Modes {
		p := fp.params(mode)
		total, starts := referenceProfile(t, p)
		v := ModeVerdict{Mode: mode, Name: mode.String(), TotalPoints: total, ExpectedOK: ExpectedConsistent(mode, fp.Workload)}
		for _, crashAt := range samplePoints(total, starts, fp.MaxPoints, fp.SampleSeed) {
			outer, err := Run(p, crashAt)
			if err != nil {
				t.Fatal(err)
			}
			v.Tested++
			if outer.Crashed {
				v.Crashed++
			}
			if !outer.Consistent {
				v.Inconsistent = append(v.Inconsistent, outer)
			}
			v.RecoveryProbes += outer.RecoveryProbes
			if !fp.Nested || !outer.Crashed {
				continue
			}
			rp, err := RecoveryCost(p, crashAt)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range sampleNested(rp, fp.MaxNested, fp.SampleSeed, crashAt) {
				nres, err := RunNested(p, crashAt, j)
				if err != nil {
					t.Fatal(err)
				}
				v.NestedTested++
				if !nres.Consistent {
					v.Inconsistent = append(v.Inconsistent, nres)
				}
				v.RecoveryProbes += nres.RecoveryProbes
			}
		}
		if len(v.Inconsistent) > 0 {
			v.Minimized = referenceShrink(t, p, v.Inconsistent[0])
		}
		res.Verdicts = append(res.Verdicts, v)
	}
	return res
}

// The forked sweep equals the per-point sweep on every paper workload
// and every mode, exhaustively with nested crashes and sampled, and is
// identical at any worker count.
func TestFuzzForkMatchesPerPointRuns(t *testing.T) {
	configs := map[string]FuzzParams{
		"exhaustive-nested": {Steps: 4, Nested: true, MaxNested: 2},
		"sampled-nested":    {Steps: 6, Seed: 9, MaxPoints: 10, Nested: true, MaxNested: 2},
	}
	for name, cfg := range configs {
		for _, wl := range workload.Names {
			fp := cfg
			fp.Workload = wl
			t.Run(name+"/"+wl, func(t *testing.T) {
				t.Parallel()
				want := referenceFuzz(t, fp)
				for _, workers := range []int{1, 4} {
					fp.Parallel = workers
					got, err := Fuzz(fp)
					if err != nil {
						t.Fatal(err)
					}
					got.Params.Parallel = want.Params.Parallel
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("parallel=%d: forked sweep differs from per-point runs:\n%s\nvs\n%s", workers, got, want)
					}
				}
				corrupt := 0
				for _, v := range want.Verdicts {
					corrupt += len(v.Inconsistent)
				}
				if corrupt == 0 {
					t.Fatal("no failing point: the minimized path went unchecked")
				}
			})
		}
	}
}

// No Table 1 mode fails inside recovery, so the nested shrink is held
// to the per-point definition directly: shrink a nested "failure" at a
// point with a non-empty recovery path, forked and per point.
func TestShrinkNestedForkMatchesPerPointRuns(t *testing.T) {
	for _, mode := range []machine.Mode{machine.WTRegister, machine.Osiris} {
		p := Params{Mode: mode, Workload: "btree", Steps: 3}.withDefaults()
		total, _ := referenceProfile(t, p)
		crashAt, rp := -1, 0
		for k := total - 1; k >= 0 && crashAt < 0; k-- {
			n, err := RecoveryCost(p, k)
			if err != nil {
				t.Fatal(err)
			}
			if n > 2 {
				crashAt, rp = k, n
			}
		}
		if crashAt < 0 {
			t.Fatalf("%v: no crash point with a recovery path to nest into", mode)
		}
		fail, err := RunNested(p, crashAt, rp-1)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceShrink(t, p, fail)
		got, err := shrink(p, newOracle(p), fail, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: forked nested shrink %+v, per-point %+v", mode, got, want)
		}
		if got.Probes == 0 {
			t.Fatalf("%v: nested shrink ran no probes", mode)
		}
	}
}
