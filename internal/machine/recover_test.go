package machine

import (
	"maps"
	"reflect"
	"testing"

	"supermem/internal/config"
	"supermem/internal/ctr"
	"supermem/internal/integrity"
	"supermem/internal/scheme"
)

// The crash fuzzer forks every crash point by calling Recover on the
// live machine from its crash-point hook. That is sound only if Recover
// reads its receiver and nothing more; these tests pin it for every
// registered mode.

// machineState is a deep copy of everything a machine's behaviour
// depends on, apart from the key-pure pad cache.
type machineState struct {
	Persists, CrashAt       int
	Crashed                 bool
	NVMData, CPUCache       map[uint64]line
	NVMCtr, CtrCache        map[uint64]ctr.Line
	NVMTag                  map[uint64]uint32
	CtrDirty                map[uint64]bool
	RSR                     *rsrState
	TreeDigest, TreeVersion uint64
	TreeStats               integrity.Stats
	TreeImage               []byte
	OsirisProbes            int
	RecoveryUsed, Bounded   int
	Throttled               int
	ThrottleBkt             bumpBucket
}

func snapshot(m *Machine) machineState {
	s := machineState{
		Persists: m.persists, CrashAt: m.crashAt, Crashed: m.crashed,
		NVMData: maps.Clone(m.nvmData), CPUCache: maps.Clone(m.cpuCache),
		NVMCtr: maps.Clone(m.nvmCtr), CtrCache: make(map[uint64]ctr.Line),
		NVMTag: maps.Clone(m.nvmTag), CtrDirty: maps.Clone(m.ctrDirty),
		TreeStats: m.TreeStats(), TreeImage: m.TreeSnapshot(),
		OsirisProbes: m.osirisProbes,
		RecoveryUsed: m.recoveryUsed, Bounded: m.boundedRecoveries,
		Throttled: m.throttledBumps, ThrottleBkt: m.throttleBkt,
	}
	m.ctrCache.Pages(func(p uint64, l *ctr.Line) { s.CtrCache[p] = *l })
	if m.rsr != nil {
		cp := *m.rsr
		s.RSR = &cp
	}
	if m.tree != nil {
		s.TreeDigest, s.TreeVersion = m.tree.Root()
	}
	return s
}

// drive populates page 0 and a line of page 1, then hammers line 0 past
// its minor limit so the page re-encrypts through the RSR, and leaves a
// dirty unflushed line in the CPU cache.
func drive(m *Machine) {
	for i := 0; i < config.LinesPerPage; i++ {
		m.Store(uint64(i*config.LineSize), []byte{byte(i), 0xA5})
		m.CLWB(uint64(i * config.LineSize))
	}
	m.Store(config.PageSize, []byte("second page"))
	m.CLWB(config.PageSize)
	for n := 0; n < ctr.MinorMax+3; n++ {
		m.Store(0, []byte{byte(n), 0x3C})
		m.CLWB(0)
	}
	m.Store(config.PageSize+config.LineSize, []byte("volatile"))
}

// recoverAll boots every kind of successor the fuzzer and the crash
// loop build: plain, with a nested crash, and bounded then resumed.
func recoverAll(m *Machine) {
	m.Recover()
	for _, j := range []int{0, 1, 5} {
		m.Recover(WithCrashAtPersist(j)).Recover()
	}
	r := m.Recover(WithRecoveryBound(3))
	for r.RecoveryPending() {
		r.ResumeRecovery()
	}
}

func TestRecoverLeavesReceiverUnchanged(t *testing.T) {
	for _, mode := range scheme.Modes() {
		t.Run(mode.String(), func(t *testing.T) {
			// Fork at every crash point of a live run, as the fuzzer does.
			m := newM(t, mode)
			midRSR, dirtyCtr := -1, false
			m.SetCrashPointHook(func(persist int) {
				before := snapshot(m)
				recoverAll(m)
				if after := snapshot(m); !reflect.DeepEqual(before, after) {
					t.Fatalf("Recover at persist %d changed its receiver:\n%+v\nvs\n%+v", persist, before, after)
				}
				if m.rsr != nil && midRSR < 0 && m.rsr.done[config.LinesPerPage/2] {
					midRSR = persist
				}
				dirtyCtr = dirtyCtr || len(m.ctrDirty) > 0
			})
			drive(m)

			// Forking must not perturb the run itself.
			plain := newM(t, mode)
			drive(plain)
			if got, want := snapshot(m), snapshot(plain); !reflect.DeepEqual(got, want) {
				t.Fatalf("forking at every crash point changed the run:\n%+v\nvs\n%+v", got, want)
			}
			if mode.Encrypted() && midRSR < 0 {
				t.Fatal("the run never re-encrypted a page")
			}
			if m.pol.Battery && !dirtyCtr {
				t.Fatal("battery mode never had a dirty counter to flush")
			}
			if midRSR < 0 {
				return
			}

			// A machine that really crashed mid-RSR.
			c := newM(t, mode, WithCrashAtPersist(midRSR))
			drive(c)
			if !c.Crashed() || c.rsr == nil {
				t.Fatalf("crash@%d did not strike mid-RSR", midRSR)
			}
			before := snapshot(c)
			recoverAll(c)
			if after := snapshot(c); !reflect.DeepEqual(before, after) {
				t.Fatalf("Recover after a mid-RSR crash changed its receiver:\n%+v\nvs\n%+v", before, after)
			}
		})
	}
}
