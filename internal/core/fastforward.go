package core

// Functional fast-forward of the warmup prefix (SMARTS-style functional
// warming; Wunderlich et al., ISCA 2003). The ops before a trace.Reset
// marker only warm state: the metrics are snapshotted at Reset and the
// warmup's share is subtracted. For one in-order core, the state that
// carries into the measured region through the caches — L1/L2/L3 and
// counter-cache contents with their LRU ticks and statistics, the
// ctr.Store minor counters and the tree write-combining buffer — is a
// function of op order alone. So most of the prefix can run through the
// same per-op paths with every NVM access skipped and the write groups
// dropped, without the event engine.
//
// The write queue and the bank timing are not functional state. The
// fast-forwarded run starts its detailed tail with an empty queue,
// where a detailed replay would hold whatever its lazy drain left
// behind, and nothing forces the two to meet again: the queue keeps
// entries below its high watermark indefinitely, and with a large queue
// the offset between the two can persist to Reset and beyond. So the
// tail is sized by write-queue traffic, and every fast-forwarded run is
// checked against a probe whose queue starts just below its high
// watermark instead of empty (see runFastForwarded); a run whose result depends on that starting state
// is simulated again in detail. This is a check, not a proof: it
// rejects the configurations the differential tests found diverging,
// and every experiment's output matches the detailed simulation, but
// the equality is established by testing, not derived.

import (
	"slices"

	"supermem/internal/memctrl"
	"supermem/internal/nvm"
	"supermem/internal/stats"
	"supermem/internal/trace"
)

// tailEntriesPerSlot sizes the detailed tail before Reset: counted back
// from Reset, the tail must be certain to put this many entries through
// the write queue per entry of queue capacity. On the default-size
// Figure 13 grid at 1 KiB transactions (a 32-entry queue), a tail of 16
// entries per slot alone reaches the detailed result on 27 to 29 of 30
// cells and 128 on all 30, at both seeds tried.
const tailEntriesPerSlot = 128

// runFastForwarded runs an eligible run with its warmup prefix
// fast-forwarded and reports ok. It reports !ok when s must simulate
// the whole run in detail instead: the run is not eligible, or the
// probe disagreed, in which case s has been rebuilt and its core reads
// the same ops from the start.
//
// The probe is a copy of s taken after the functional replay whose
// write queue starts holding one entry short of the high watermark —
// the most a lazily draining queue keeps without issuing — filled with
// the lines of the last writes before the tail. s starts the tail with
// the queue empty. Outside a drain, a detailed replay's queue at that
// point lies between the two, so when both reach the same metrics and
// bank statistics the starting queue state has washed out by the end
// of the run.
func (s *System) runFastForwarded() (m stats.Metrics, ok bool, err error) {
	ops, n := s.fastForwardable()
	if n == 0 {
		return stats.Metrics{}, false, nil
	}
	s.fastForward(n)
	probe, err := s.probe(ops, n)
	if err != nil {
		return stats.Metrics{}, true, err
	}
	if m, err = s.run(); err != nil {
		return m, true, err
	}
	if pm, err := probe.run(); err == nil && pm == m && slices.Equal(probe.BankStats(), s.BankStats()) {
		s.ffOps = n
		return m, true, nil
	}
	// Eligible runs have no recorder or fault schedule attached, so the
	// rebuild loses nothing set on s after NewSystem.
	if err := s.build(s.cfg); err != nil {
		return stats.Metrics{}, true, err
	}
	s.cores[0].src = trace.NewSliceSource(ops)
	return stats.Metrics{}, false, nil
}

// fastForward functionally replays the core's next n ops, which must be
// plain memory ops.
func (s *System) fastForward(n int) {
	c := s.cores[0]
	s.ffwd = true
	for i := 0; i < n; i++ {
		op, _ := c.src.Next()
		c.gb.reset()
		switch op.Kind {
		case trace.Read:
			s.readPath(c, 0, nvm.LineAddr(op.Addr), false)
		case trace.Write:
			s.writeHit(c, 0, nvm.LineAddr(op.Addr))
		case trace.Flush:
			s.flushPath(c, 0, nvm.LineAddr(op.Addr))
		}
	}
	s.ffwd = false
}

// probe builds the convergence probe for a run whose first n ops of
// ops s has just fast-forwarded: a fresh system with s's functional
// state, reading ops from n on, whose write queue is prefilled as
// runFastForwarded describes.
func (s *System) probe(ops []trace.Op, n int) (*System, error) {
	p, err := NewSystem(s.cfg)
	if err != nil {
		return nil, err
	}
	c, pc := s.cores[0], p.cores[0]
	pc.l1.CopyFrom(c.l1)
	pc.l2.CopyFrom(c.l2)
	p.l3.CopyFrom(s.l3)
	for i, cc := range s.ctrCaches {
		p.ctrCaches[i].CopyFrom(cc)
	}
	p.ctrStore = s.ctrStore.Clone()
	p.treeWCB = s.treeWCB
	p.m, pc.m = s.m, c.m
	pc.src = trace.NewSliceSource(ops[n:])
	mc := pc.mc
	for i := n - 1; i >= 0 && mc.Len() < mc.HighWatermark()-1; i-- {
		if ops[i].Kind == trace.Write {
			e := []memctrl.Entry{{Addr: nvm.LineAddr(ops[i].Addr)}}
			if err := mc.EnqueueTo(0, e, memctrl.AcceptFunc(func(uint64) {})); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// fastForwardable returns the remaining ops of an eligible run and how
// many of them to replay functionally (0 when the run is not eligible).
// A run is eligible when its state at Reset is known to depend on op
// order alone, apart from the write queue and bank timing the detailed
// tail and the probe take care of:
//   - one core, running the in-order model;
//   - a *trace.SliceSource, so the prefix can be inspected up front;
//   - only Read, Write, Flush, Fence and Compute ops before Reset;
//   - no recorder, bank-fault schedule, overflow throttle or wear
//     leveling, whose state advances with simulated time;
//   - enough write traffic before Reset to fill the tail.
//
// The tail is the shortest suffix of the prefix that is certain to
// enqueue tailEntriesPerSlot entries per write-queue slot. Each flush
// of a line written since the line's previous flush puts at least one
// data entry through the queue: either the flush finds the line dirty
// and persists it, or an eviction already has.
func (s *System) fastForwardable() ([]trace.Op, int) {
	if len(s.cores) != 1 || s.rec != nil || s.dev.HasFaults() || s.throttlePeriod != 0 || s.cfg.WearRemapPeriod != 0 {
		return nil, 0
	}
	c := s.cores[0]
	if _, ok := c.model.(*InOrder); !ok {
		return nil, 0
	}
	src, ok := c.src.(*trace.SliceSource)
	if !ok {
		return nil, 0
	}
	ops := src.Remaining()
	reset := -1
	for i, op := range ops {
		if op.Kind == trace.Reset {
			reset = i
			break
		}
		switch op.Kind {
		case trace.Read, trace.Write, trace.Flush, trace.Fence, trace.Compute:
		default:
			return nil, 0
		}
	}
	need := tailEntriesPerSlot * s.cfg.WriteQueueEntries
	flushed := make(map[uint64]bool)
	for i := reset - 1; i > 0; i-- {
		line := nvm.LineAddr(ops[i].Addr)
		switch ops[i].Kind {
		case trace.Flush:
			flushed[line] = true
		case trace.Write:
			if flushed[line] {
				delete(flushed, line)
				if need--; need == 0 {
					return ops, i
				}
			}
		}
	}
	return nil, 0
}
