// Package crash is the crash-consistency fuzzer: it runs the
// evaluation's workloads on the byte-accurate machine, injects a power
// failure at chosen persistence steps, recovers (ADR drain + redo-log
// recovery), and checks the structure's invariants. Because workloads
// are deterministic, the expected post-crash state is reconstructed by
// replaying the same seed for n or n+1 steps — the recovered structure
// must match one of the two (transaction atomicity).
package crash

import (
	"errors"
	"fmt"
	"sync"

	"supermem/internal/alloc"
	"supermem/internal/fault"
	"supermem/internal/machine"
	"supermem/internal/obs"
	"supermem/internal/pmem"
	"supermem/internal/workload"
)

// Params configures a fuzzing run.
type Params struct {
	// Mode is the machine design under test.
	Mode machine.Mode
	// Workload is one of workload.Names.
	Workload string
	// TxBytes is the transaction request size.
	TxBytes int
	// Items sizes the structure.
	Items int
	// Steps is how many transactions the run attempts.
	Steps int
	// Seed drives the workload and the heap layout.
	Seed int64
	// Key is the machine's AES key (16 bytes); a default is used when
	// nil.
	Key []byte
	// Attack parameterizes the adversarial workloads
	// (workload.AttackNames); ignored by everything else.
	Attack workload.AttackConfig
	// RecoveryBound caps each recovery pass's re-encryption completion
	// work at this many persistence micro-steps (0 = unbounded); see
	// machine.WithRecoveryBound. Bounded passes degrade to staged
	// recovery, which the recovery paths here drain to completion.
	RecoveryBound int
}

func (p Params) withDefaults() Params {
	if p.TxBytes == 0 {
		p.TxBytes = 256
	}
	if p.Items == 0 {
		p.Items = 32
	}
	if p.Steps == 0 {
		p.Steps = 20
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Key == nil {
		p.Key = []byte("crash-fuzz-key..")
	}
	return p
}

const (
	logBase  = 0
	logSize  = 1 << 20
	heapBase = 1 << 20
	heapSize = 64 << 20
)

// newHeap builds the deterministic heap every run (and replay) shares.
func newHeap() (*alloc.Heap, error) {
	return alloc.NewHeap(
		alloc.Region{Base: heapBase, Size: heapSize},
		alloc.Region{Base: heapBase + heapSize, Size: heapSize},
	)
}

// build constructs a workload over the backend and runs setup.
func build(p Params, b pmem.Backend) (workload.Workload, *pmem.TxManager, error) {
	heap, err := newHeap()
	if err != nil {
		return nil, nil, err
	}
	w, err := workload.New(p.Workload, workload.Params{
		Heap:    heap,
		TxBytes: p.TxBytes,
		Items:   p.Items,
		Seed:    p.Seed,
		Attack:  p.Attack,
	})
	if err != nil {
		return nil, nil, err
	}
	tm := pmem.NewTxManager(b, logBase, logSize)
	if err := w.Setup(tm); err != nil {
		return nil, nil, err
	}
	// Table 1's premise is that the counters protecting *old* data are
	// correct — an idle write-back cache would have evicted them long
	// before the transaction under test. Flush them so a write-back
	// design's corruption is pinned on the measured transactions, not
	// on setup state no real machine would keep dirty.
	if m, ok := b.(*machine.Machine); ok {
		m.FlushCounters()
	}
	return w, tm, nil
}

// Result reports one crash experiment.
type Result struct {
	// CrashStep is the persistence step at which power failed (-1 when
	// the run completed without reaching it).
	CrashStep int
	// RecoveryCrashStep is the persistence step of the *recovery* path
	// at which a nested power failure struck, or -1 when none was armed
	// or the recovery finished before reaching it.
	RecoveryCrashStep int
	// CompletedSteps is the number of transactions that finished before
	// the crash.
	CompletedSteps int
	// Crashed reports whether the injection point was reached.
	Crashed bool
	// RecoveryCrashed reports whether the nested injection point was
	// reached during recovery.
	RecoveryCrashed bool
	// Consistent reports whether the recovered structure matched the
	// state after CompletedSteps or CompletedSteps+1 transactions.
	Consistent bool
	// RecoveryProbes is the number of candidate decryptions counter
	// recovery performed on the final recovered machine (zero for modes
	// that never probe) — the per-crash recovery cost of relaxed counter
	// persistence.
	RecoveryProbes int `json:"recovery_probes,omitempty"`
	// Detail carries the verification error when inconsistent.
	Detail string
}

// runToCrash executes the workload with a crash armed at the given
// persistence step (counted from the end of setup; negative leaves the
// crash unarmed) and returns the machine, the workload, and how many
// transactions completed. A non-nil injector attaches after setup, so
// its step schedule counts from the same origin as crash points.
func runToCrash(p Params, crashAt int, inj *fault.Injector) (*machine.Machine, workload.Workload, int, error) {
	m, err := machine.New(p.Mode, p.Key, machine.WithRecoveryBound(p.RecoveryBound))
	if err != nil {
		return nil, nil, 0, err
	}
	w, tm, err := build(p, m)
	if err != nil {
		return nil, nil, 0, err
	}
	if inj != nil {
		m.SetInjector(inj)
	}
	if crashAt >= 0 {
		m.ArmCrashAtPersist(crashAt)
	}
	completed := 0
	for i := 0; i < p.Steps && !m.Crashed(); i++ {
		if err := stepOnce(w, tm, inj != nil); err != nil {
			// A step interrupted by the power failure may fail its own
			// sanity checks (reads on a dead machine return zeros);
			// that is the crash, not a bug.
			if m.Crashed() {
				break
			}
			if inj != nil {
				// With faults injected, a live-run step failure is an
				// observable outcome — the corruption broke the
				// structure mid-run — not an infrastructure error.
				// Report it through the machine's step-failure slot.
				return m, w, completed, &stepFailure{step: i, err: err}
			}
			return nil, nil, 0, fmt.Errorf("crash: step %d: %w", i, err)
		}
		if !m.Crashed() {
			completed++
		}
	}
	return m, w, completed, nil
}

// stepFailure marks a workload step broken by injected corruption on a
// live (uncrashed) machine. It travels through runToCrash's error
// return but is peeled off by runAndRecover rather than propagated.
type stepFailure struct {
	step int
	err  error
}

func (s *stepFailure) Error() string {
	return fmt.Sprintf("crash: step %d broken by injected fault: %v", s.step, s.err)
}

// stepOnce runs one workload step; with faults armed it also converts a
// panic into an error, since a structure corrupted mid-run can break
// the workload's own bookkeeping in ways it never guards against.
func stepOnce(w workload.Workload, tm *pmem.TxManager, tolerant bool) (err error) {
	if tolerant {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("workload panicked on corrupted state: %v", r)
			}
		}()
	}
	return w.Step(tm)
}

// Run executes the workload with a crash armed at the given persistence
// step (counted from the end of setup), recovers, and classifies the
// outcome.
func Run(p Params, crashAt int) (Result, error) {
	res, _, err := runAndRecover(p, crashAt, -1, nil)
	return res, err
}

// RunNested is Run with a second power failure armed at the given
// persistence micro-step of the recovery path itself: finishing the
// RSR re-encryption state machine and reapplying the redo log both
// consume persistence steps on the recovered machine, and crashing
// there exercises the windows Triad-NVM and Phoenix show persistence
// bugs hide in. After the nested crash a second (uninterrupted)
// recovery runs, and *that* state must match a replay.
func RunNested(p Params, crashAt, recoveryCrashAt int) (Result, error) {
	res, _, err := runAndRecover(p, crashAt, recoveryCrashAt, nil)
	return res, err
}

// runAndRecover is the per-point engine of Run, RunNested and RunFault:
// one execution to the crash point, then recoverAndCheck. It also
// returns the final recovered machine (for the fault classification).
func runAndRecover(p Params, crashAt, recoveryCrashAt int, inj *fault.Injector) (Result, *machine.Machine, error) {
	p = p.withDefaults()
	m, w, completed, err := runToCrash(p, crashAt, inj)
	if err != nil {
		var sf *stepFailure
		if errors.As(err, &sf) {
			// Injected corruption broke the structure on the live run:
			// the machine never crashed, so there is nothing to recover —
			// the divergence itself is the result.
			return Result{
				CrashStep:         crashAt,
				RecoveryCrashStep: -1,
				CompletedSteps:    completed,
				Consistent:        false,
				Detail:            sf.Error(),
			}, m, nil
		}
		return Result{}, nil, err
	}
	if !m.Crashed() {
		// The run finished before the injection point; verify in place.
		res := Result{CrashStep: crashAt, RecoveryCrashStep: -1, CompletedSteps: p.Steps, Consistent: true}
		if err := w.Verify(m); err != nil {
			res.Consistent = false
			res.Detail = err.Error()
		}
		return res, m, nil
	}
	return recoverAndCheck(m, newOracle(p), completed, crashAt, recoveryCrashAt)
}

// recoverAndCheck is the one post-crash path: it boots the successor of
// m, finishes any staged recovery, reapplies the redo log, and judges
// the recovered structure against the oracle. m is either a machine
// that crashed at persist step crashAt or a live machine paused at that
// step by its crash-point hook — Recover only reads its receiver, so
// both yield the successor a crash there leaves. completed is the
// number of transactions that finished before the crash. A
// non-negative recoveryCrashAt arms a nested power failure in the
// recovery path; a second, uninterrupted recovery then runs and
// consistency is judged on its result. The final recovered machine is
// returned too: the fuzzer reads the recovery's persist count off it
// and diffs its bytes.
func recoverAndCheck(m *machine.Machine, o *oracle, completed, crashAt, recoveryCrashAt int) (Result, *machine.Machine, error) {
	res := Result{CrashStep: crashAt, RecoveryCrashStep: -1, CompletedSteps: completed, Crashed: true}
	var r *machine.Machine
	if recoveryCrashAt >= 0 {
		r = m.Recover(machine.WithCrashAtPersist(recoveryCrashAt))
	} else {
		r = m.Recover()
	}
	drainStagedRecovery(r)
	pmem.Recover(r, logBase, logSize)
	if r.Crashed() {
		// The nested failure hit mid-recovery; power-cycle again. The
		// second recovery runs to completion, and consistency is judged
		// on its result.
		res.RecoveryCrashed = true
		res.RecoveryCrashStep = recoveryCrashAt
		r = r.Recover()
		drainStagedRecovery(r)
		pmem.Recover(r, logBase, logSize)
	}
	res.RecoveryProbes = r.OsirisProbes()

	ok, err := o.consistent(r, completed)
	if err != nil {
		return Result{}, nil, err
	}
	if ok {
		res.Consistent = true
		return res, r, nil
	}
	// Capture a diagnostic from the nearer replay.
	if res.Detail, err = o.detail(r, completed); err != nil {
		return Result{}, nil, err
	}
	return res, r, nil
}

// replay rebuilds the workload's Go-side bookkeeping after n steps on a
// scratch backend (deterministic: same seed, same heap layout). The
// backend is returned too, so callers can diff its bytes against a
// recovered machine.
func replay(p Params, n int) (workload.Workload, *pmem.TracingBackend, error) {
	b := pmem.NewTracingBackend()
	w, tm, err := build(p, b)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < n; i++ {
		if err := w.Step(tm); err != nil {
			return nil, nil, fmt.Errorf("crash: replay step %d: %w", i, err)
		}
	}
	return w, b, nil
}

// oracle is the expected post-crash state: the workload replayed for n
// steps, memoized per n. Replays run on a TracingBackend, so they do
// not depend on Params.Mode and one oracle serves every mode of a Fuzz
// call. It is safe for concurrent use: Workload.Verify only reads the
// replayed workload.
type oracle struct {
	p    Params
	mu   sync.Mutex
	memo map[int]*replayed
}

type replayed struct {
	once sync.Once
	w    workload.Workload
	err  error
}

func newOracle(p Params) *oracle {
	return &oracle{p: p, memo: make(map[int]*replayed)}
}

// after returns the workload replayed for n steps.
func (o *oracle) after(n int) (workload.Workload, error) {
	o.mu.Lock()
	e := o.memo[n]
	if e == nil {
		e = &replayed{}
		o.memo[n] = e
	}
	o.mu.Unlock()
	e.once.Do(func() { e.w, _, e.err = replay(o.p, n) })
	return e.w, e.err
}

// consistent reports whether the recovered machine equals the replayed
// state after either completed or completed+1 transactions
// (transaction atomicity).
func (o *oracle) consistent(r *machine.Machine, completed int) (bool, error) {
	for _, n := range []int{completed, completed + 1} {
		w, err := o.after(n)
		if err != nil {
			return false, err
		}
		if w.Verify(r) == nil {
			return true, nil
		}
	}
	return false, nil
}

// detail returns the recovered machine's verification error against the
// n-step replay ("" when it verifies).
func (o *oracle) detail(r *machine.Machine, n int) (string, error) {
	w, err := o.after(n)
	if err != nil {
		return "", err
	}
	if verr := w.Verify(r); verr != nil {
		return verr.Error(), nil
	}
	return "", nil
}

// countPersists runs the workload crash-free and returns the persist
// steps consumed by its transactions (after setup).
func countPersists(p Params) (int, error) {
	total, _, err := forkPoints(p, nil, nil)
	return total, err
}

// errStopRun, returned by a forkPoints visitor, ends the run early.
var errStopRun = errors.New("crash: stop run")

// forkPoints runs the workload once, crash-free, and forks the crash
// points want selects (every point when want is nil): at each, inside
// the persistence step and before it lands, visit gets the live machine,
// the point's persist index (counted from the end of setup) and the
// number of transactions completed so far. recoverAndCheck on that
// machine yields exactly what a crash armed at the point would, with no
// re-execution of the prefix. A nil visit makes this a plain profiling
// run. It returns the persist steps the transactions consumed plus the
// persist index at the start of every commit stage — the
// prepare/mutate/commit windows of Table 1, which the fuzzer's sampler
// weights toward. A visitor error other than errStopRun is returned;
// errStopRun leaves total short.
func forkPoints(p Params, want func(k int) bool, visit func(m *machine.Machine, k, completed int) error) (total int, stageStarts []int, err error) {
	m, err := machine.New(p.Mode, p.Key, machine.WithRecoveryBound(p.RecoveryBound))
	if err != nil {
		return 0, nil, err
	}
	w, tm, err := build(p, m)
	if err != nil {
		return 0, nil, err
	}
	base := m.Persists()
	tm.StageHook = func(pmem.Stage) { stageStarts = append(stageStarts, m.Persists()-base) }
	step := 0
	var visitErr error
	if visit != nil {
		m.SetCrashPointHook(func(persist int) {
			if k := persist - base; visitErr == nil && (want == nil || want(k)) {
				visitErr = visit(m, k, step)
			}
		})
	}
	for ; step < p.Steps && visitErr == nil; step++ {
		if err := w.Step(tm); err != nil {
			return 0, nil, fmt.Errorf("crash: step %d: %w", step, err)
		}
	}
	if visitErr != nil && visitErr != errStopRun {
		return 0, nil, visitErr
	}
	return m.Persists() - base, stageStarts, nil
}

// ReferenceRun executes the workload crash-free on the byte-accurate
// machine with an observability recorder attached and verifies the
// final state. It returns the persist-step count of each transaction —
// the distribution behind supermem-crash's -hist output — while the
// recorder (if tracing) captures every persist instant and RSR
// re-encryption span the machine emits. Setup traffic is excluded: the
// recorder attaches after setup, matching how crash sweeps count steps.
func ReferenceRun(p Params, rec *obs.Recorder) ([]int, error) {
	p = p.withDefaults()
	m, err := machine.New(p.Mode, p.Key)
	if err != nil {
		return nil, err
	}
	w, tm, err := build(p, m)
	if err != nil {
		return nil, err
	}
	m.SetRecorder(rec)
	counts := make([]int, 0, p.Steps)
	prev := m.Persists()
	for i := 0; i < p.Steps; i++ {
		if err := w.Step(tm); err != nil {
			return nil, fmt.Errorf("crash: reference step %d: %w", i, err)
		}
		counts = append(counts, m.Persists()-prev)
		// The machine has no cycle clock, so the "latency" histogram
		// measures transactions in persist steps.
		rec.Observe(obs.HistTxLatency, uint64(m.Persists()-prev))
		prev = m.Persists()
	}
	rec.Finish(uint64(m.Persists()))
	if err := w.Verify(m); err != nil {
		return nil, fmt.Errorf("crash: reference run verify: %w", err)
	}
	return counts, nil
}

// recoveryPersists measures the persistence micro-steps the recovery
// path consumes after a crash at crashAt: finishing an in-flight RSR
// re-encryption plus reapplying the redo log. Zero means the recovery
// wrote nothing (nothing to finish, no sealed log).
func recoveryPersists(p Params, crashAt int) (int, error) {
	p = p.withDefaults()
	m, _, _, err := runToCrash(p, crashAt, nil)
	if err != nil {
		return 0, err
	}
	if !m.Crashed() {
		return 0, nil
	}
	r := m.Recover()
	drainStagedRecovery(r)
	pmem.Recover(r, logBase, logSize)
	return r.Persists(), nil
}

// drainStagedRecovery resumes a bounded (staged) recovery until no
// re-encryption work is pending, as a real boot sequence would before
// mounting. Unbounded recoveries never leave pending work, so this is
// a no-op for them.
func drainStagedRecovery(m *machine.Machine) {
	for m.RecoveryPending() {
		m.ResumeRecovery()
	}
}
