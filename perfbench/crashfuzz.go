package main

import (
	"fmt"
	"strings"

	"supermem/internal/crash"
	"supermem/internal/machine"
)

// crashCell is one (workload, machine mode) verdict of the
// differential fuzzer.
type crashCell struct {
	id string
	fp crash.FuzzParams
}

// crashJob runs crash.Fuzz over every paper workload and every
// registered machine mode, one mode per call so each mode's host time
// is its own cell. Fuzz itself iterates modes the same way, so the
// verdicts are those of one all-mode call.
type crashJob struct {
	cells []crashCell
	// refPoints is each cell's crash-point space measured by a
	// crash-free reference run during set-up.
	refPoints []int
}

func (j *crashJob) cellIDs() []string {
	ids := make([]string, len(j.cells))
	for i, c := range j.cells {
		ids[i] = c.id
	}
	return ids
}

// params is the crash-run configuration Fuzz derives for the cell.
func (c crashCell) params() crash.Params {
	return crash.Params{
		Mode:     c.fp.Modes[0],
		Workload: c.fp.Workload,
		TxBytes:  c.fp.TxBytes,
		Items:    c.fp.Items,
		Steps:    c.fp.Steps,
		Seed:     c.fp.Seed,
	}
}

// setup runs each cell's workload crash-free on the byte-accurate
// machine, verifying its final state and sizing its crash-point space.
func (j *crashJob) setup(tr *tracer, parent int) error {
	ref := make([]int, len(j.cells))
	for i, c := range j.cells {
		sp := tr.begin("crash.reference_run", c.id, parent)
		counts, err := crash.ReferenceRun(c.params(), nil)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("reference %s: %w", c.id, err)
		}
		for _, n := range counts {
			ref[i] += n
		}
	}
	j.refPoints = ref
	return nil
}

func (j *crashJob) runCell(i int, tr *tracer, parent int) (crash.ModeVerdict, error) {
	c := j.cells[i]
	sp := tr.begin("crash.fuzz", c.id, parent)
	res, err := crash.Fuzz(c.fp)
	tr.end(sp)
	if err != nil {
		return crash.ModeVerdict{}, err
	}
	if len(res.Verdicts) != 1 {
		return crash.ModeVerdict{}, fmt.Errorf("%s: %d verdicts for one mode", c.id, len(res.Verdicts))
	}
	return res.Verdicts[0], nil
}

// check applies Table 1 to every verdict and confirms the fuzzer swept
// exactly the crash-point space the reference run measured.
func (j *crashJob) check(vs []crash.ModeVerdict) []error {
	errs := make([]error, len(vs))
	for i, v := range vs {
		c := j.cells[i]
		res := crash.FuzzResult{Params: c.fp, Verdicts: []crash.ModeVerdict{v}}
		if err := res.CheckTable1(); err != nil {
			errs[i] = err
		} else if v.TotalPoints != j.refPoints[i] || v.Tested != v.TotalPoints {
			errs[i] = fmt.Errorf("%s: fuzzed %d of %d points, reference run has %d", c.id, v.Tested, v.TotalPoints, j.refPoints[i])
		}
	}
	return errs
}

// traceExtra has nothing to add: every crash layer is timed in the pass.
func (j *crashJob) traceExtra(*tracer, int) error { return nil }

func (j *crashJob) workUnit() (name, unit string, scale float64) {
	return "crash_points_per_s", "1/s", 1
}

// work reports the outer plus nested crash points one pass tests.
func (j *crashJob) work(vs []crash.ModeVerdict) float64 {
	var n int
	for _, v := range vs {
		n += v.Tested + v.NestedTested
	}
	return float64(n)
}

// modeKey renders a mode name as a metric-name suffix:
// "WT+Register" -> "wt_register".
func modeKey(m machine.Mode) string {
	return strings.NewReplacer("+", "_", "-", "_").Replace(strings.ToLower(m.String()))
}

// timedModes are the modes that get a crash.mode_s.<mode> metric: the
// plain machine, counter-mode encryption, and encryption plus a tree.
var timedModes = []machine.Mode{machine.Unencrypted, machine.WTRegister, machine.Phoenix}

func (j *crashJob) layerMetrics(tr *tracer, vs []crash.ModeVerdict, out metrics) {
	modeOf := make(map[string]machine.Mode, len(j.cells))
	for _, c := range j.cells {
		modeOf[c.id] = c.fp.Modes[0]
	}
	out["crash.reference_s"] = tr.total("crash.reference_run", nil)
	modeS := make(map[machine.Mode]float64)
	for _, m := range timedModes {
		modeS[m] = tr.total("crash.fuzz", func(cell string) bool { return modeOf[cell] == m })
		out["crash.mode_s."+modeKey(m)] = modeS[m]
	}
	out["machine.encrypt_cost_ratio"] = ratio(modeS[machine.WTRegister], modeS[machine.Unencrypted])
	out["machine.tree_cost_ratio"] = ratio(modeS[machine.Phoenix], modeS[machine.WTRegister])
	var tested, nested int
	for _, v := range vs {
		tested += v.Tested
		nested += v.NestedTested
	}
	out["crash.points_tested"] = float64(tested)
	out["crash.nested_points"] = float64(nested)
	out["crash.ns_per_point"] = ratio(tr.total("crash.fuzz", nil)*1e9, float64(tested+nested))
}
