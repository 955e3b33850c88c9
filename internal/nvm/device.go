package nvm

import (
	"fmt"
	"slices"

	"supermem/internal/config"
	"supermem/internal/fault"
	"supermem/internal/obs"
)

// BankStats accumulates per-bank service counts and occupancy.
type BankStats struct {
	Reads      uint64
	Writes     uint64
	BusyCycles uint64
}

// Device is the timing model of the NVM DIMM: a set of banks, each able
// to service one line operation at a time. Callers reserve bank time;
// the device hands back start/completion times and accounts occupancy.
type Device struct {
	layout Layout
	read   uint64 // read service cycles per line
	write  uint64 // write service cycles per line
	// freeAt[b] is the cycle bank b finishes its current operation.
	// It is kept apart from the statistics so the scheduler's idle scan
	// reads one compact array.
	freeAt []uint64
	stats  []BankStats
	faults *fault.BankFaults
	rec    *obs.Recorder
}

// NewDevice builds the device from the configuration.
func NewDevice(cfg config.Config) *Device {
	return &Device{
		layout: NewLayout(cfg),
		read:   cfg.ReadCycles,
		write:  cfg.WriteCycles,
		freeAt: make([]uint64, cfg.Banks),
		stats:  make([]BankStats, cfg.Banks),
	}
}

// SetRecorder attaches an observability recorder (nil disables). Each
// bank reservation is then recorded as a busy interval and trace span.
func (d *Device) SetRecorder(r *obs.Recorder) { d.rec = r }

// SetFaults attaches a bank-fault schedule (nil disables). Each access
// then consults the schedule: a spiked access takes extra service
// cycles, a failing read returns ok=false from ReadLineAt.
func (d *Device) SetFaults(f *fault.BankFaults) { d.faults = f }

// HasFaults reports whether a bank-fault schedule is attached.
func (d *Device) HasFaults() bool { return d.faults != nil }

// Layout returns the device's address map.
func (d *Device) Layout() Layout { return d.layout }

// Banks returns the number of banks.
func (d *Device) Banks() int { return len(d.freeAt) }

// BankFreeAt returns the cycle at which the bank finishes its current
// operation (it may be in the past if the bank is idle).
func (d *Device) BankFreeAt(b int) uint64 { return d.freeAt[b] }

// IdleMask returns the banks idle at cycle now as a bitmask: bit b is
// set when bank b has finished its current operation (BankFreeAt(b) <=
// now). It covers config.MaxBanks banks, the most a valid
// configuration has; callers must not pass a larger device.
func (d *Device) IdleMask(now uint64) (idle uint64) {
	for b, t := range d.freeAt {
		// Branch-free freeAt <= now: bank states are close to random
		// from one scan to the next, so a branch here mispredicts.
		// Cycle counts stay far below 1<<63, so the borrow of
		// now-freeAt lands in bit 63 exactly when freeAt > now.
		idle |= ((now-t)>>63 ^ 1) << (uint(b) & 63)
	}
	return idle
}

// ReadLine reserves the line's home bank for a read and returns the
// completion time, ignoring transient fault outcomes (convenience over
// ReadLineAt for callers without a retry policy).
func (d *Device) ReadLine(now, addr uint64) (done uint64) {
	done, _ = d.ReadLineAt(now, d.layout.BankOf(addr))
	return done
}

// ReadLineAt reserves bank b for a line read starting no earlier than
// now. ok is false when the attached fault schedule fails this access —
// the bank still burns its (possibly spiked) service time, as a real
// media read that returns garbage does.
func (d *Device) ReadLineAt(now uint64, b int) (done uint64, ok bool) {
	fail, extra := d.faults.OnAccess(b)
	done = d.reserve(b, now, d.read+extra, "bank read")
	d.stats[b].Reads++
	return done, !fail
}

// WriteLine reserves the line's home bank for a write and returns the
// completion time.
func (d *Device) WriteLine(now, addr uint64) (done uint64) {
	return d.WriteLineAt(now, d.layout.BankOf(addr))
}

// WriteLineAt reserves bank b for a line write starting no earlier than
// now, and returns the completion time. The memory controller calls
// this only when the bank is free (lazy drain), but the device accepts
// back-to-back reservations regardless. Fault windows slow writes down
// (latency spikes) but do not fail them: the write queue's entry is
// retained until retirement, so a failed program operation is re-driven
// by the bank internally and surfaces only as added latency here.
func (d *Device) WriteLineAt(now uint64, b int) (done uint64) {
	_, extra := d.faults.OnAccess(b)
	done = d.reserve(b, now, d.write+extra, "bank write")
	d.stats[b].Writes++
	return done
}

func (d *Device) reserve(b int, now, dur uint64, op string) uint64 {
	start := now
	if d.freeAt[b] > start {
		start = d.freeAt[b]
	}
	done := start + dur
	d.freeAt[b] = done
	d.stats[b].BusyCycles += dur
	if d.rec != nil {
		d.rec.BankBusy(b, start, done, op)
	}
	return done
}

// Stats returns a copy of the per-bank statistics.
func (d *Device) Stats() []BankStats {
	return slices.Clone(d.stats)
}

// TotalStats sums the per-bank statistics.
func (d *Device) TotalStats() BankStats {
	var t BankStats
	for _, st := range d.stats {
		t.Reads += st.Reads
		t.Writes += st.Writes
		t.BusyCycles += st.BusyCycles
	}
	return t
}

// String summarises bank occupancy, for debug output.
func (d *Device) String() string {
	t := d.TotalStats()
	return fmt.Sprintf("nvm{banks=%d reads=%d writes=%d busy=%d}", len(d.freeAt), t.Reads, t.Writes, t.BusyCycles)
}
