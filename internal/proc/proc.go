// Package proc models the node's processor: a 200 MHz dual-issue
// SPARC-like core (paper §4.1). The model is communication-directed:
// computation is an explicit cycle cost, cachable accesses are ranges
// of the MOESI cache (cache.Range), uncached device accesses go over
// the buses, and a store buffer makes uncached stores posted (with
// MEMBAR to drain it, as the paper's three-cycle CDR handshake
// requires). Each uncached call — a run of stores, a run of loads of
// one register, or a MEMBAR — is one engine-side run, so the process
// resumes once per call.
package proc

import (
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/params"
	"repro/internal/sim"
)

// CPU is the simulated processor core. All methods taking a
// *sim.Process must be called from the software process running on
// this CPU; they advance simulated time.
type CPU struct {
	ID    int
	eng   *sim.Engine
	stats *sim.Stats
	fab   *bus.Fabric
	cache *cache.Cache
	name  string

	sbQ     sim.FIFO[bus.PostedWrite]
	sbWork  sim.Cond
	sbSpace sim.Cond
	// The store buffer's drain is a driven process (drainStoreBuffer)
	// issuing its stores through sb.
	sb               *bus.Call
	drainFn, retired func()

	runs sim.Pool[deviceRun] // device runs no access is using

	sbFull       *sim.Counter
	membarStalls *sim.Counter
}

// New creates a CPU with its cache and starts the store-buffer drain.
func New(e *sim.Engine, st *sim.Stats, f *bus.Fabric, c *cache.Cache, id int, name string) *CPU {
	cpu := &CPU{
		ID:           id,
		eng:          e,
		stats:        st,
		fab:          f,
		cache:        c,
		name:         name,
		sbFull:       st.Counter(name + ".sb.full"),
		membarStalls: st.Counter(name + ".membar.stall"),
	}
	cpu.drainFn = cpu.drainStoreBuffer
	cpu.retired = func() { cpu.sbQ.Pop(); cpu.sbSpace.Broadcast(); cpu.drainStoreBuffer() }
	cpu.sb = bus.NewCall(f, e.Drive(name+".sbdrain", cpu.drainFn))
	return cpu
}

// Cache exposes the CPU's cache (for machine assembly and tests).
func (c *CPU) Cache() *cache.Cache { return c.cache }

// Compute advances the process by n cycles of computation.
func (c *CPU) Compute(p *sim.Process, n sim.Time) {
	if n > 0 {
		p.Sleep(n)
	}
}

// Load performs a cachable load (up to 8 bytes) at addr.
func (c *CPU) Load(p *sim.Process, addr uint64) { c.cache.Load(p, addr) }

// Store performs a cachable store (up to 8 bytes) at addr.
func (c *CPU) Store(p *sim.Process, addr uint64) { c.cache.Store(p, addr) }

// LoadRange issues word loads covering [addr, addr+bytes).
func (c *CPU) LoadRange(p *sim.Process, addr uint64, bytes int) {
	c.cache.Range(p, addr, bytes, false)
}

// StoreRange issues word stores covering [addr, addr+bytes).
func (c *CPU) StoreRange(p *sim.Process, addr uint64, bytes int) {
	c.cache.Range(p, addr, bytes, true)
}

// UncachedLoad performs n back-to-back uncached 8-byte loads of a
// device register and returns the last one's value. Like SPARC TSO
// device access, each load first drains the store buffer, so posted
// uncached stores reach the device before it.
func (c *CPU) UncachedLoad(p *sim.Process, dev bus.Device, reg uint64, n int) uint64 {
	return c.device(p, dev, reg, 0, 0, n)
}

// UncachedStore posts n uncached 8-byte stores of val, val+1, … to a
// device register through the store buffer: the processor stalls only
// while the buffer is full, and pays HitCycles to issue each store.
// A store reaches the device when the drain process issues it on the
// bus (use Membar to wait for that).
func (c *CPU) UncachedStore(p *sim.Process, dev bus.Device, reg, val uint64, n int) {
	c.device(p, dev, reg, val, n, 0)
}

// Membar stalls until the store buffer has fully drained, including
// the store currently occupying the bus.
func (c *CPU) Membar(p *sim.Process) { c.device(p, nil, 0, 0, 0, 0) }

// device runs stores uncached stores of val, val+1, … to dev's register
// reg, then loads uncached loads of it, or with no dev a MEMBAR, as one
// Spin on a run from the CPU's pool (several processes may be in
// device accesses on one CPU at once): p takes the first step itself,
// and the run's probe takes each later one at the wake where p would
// have, so p resumes once. It returns the last load's value.
func (c *CPU) device(p *sim.Process, dev bus.Device, reg, val uint64, stores, loads int) uint64 {
	r := c.runs.Get()
	r.cpu, r.p, r.w = c, p, bus.PostedWrite{Dev: dev, Reg: reg, Val: val}
	r.stores, r.loads, r.fence = stores, loads, dev == nil
	if d, done := r.next(); !done {
		p.Spin(d, r)
	}
	v := r.w.Val
	r.p, r.w = nil, bus.PostedWrite{}
	c.runs.Put(r)
	return v
}

// deviceRun is one device access's engine probe (sim.Process.Spin).
// At each wake it does what the process's loop would: a store that
// finds the buffer full waits for space, and otherwise enters the
// buffer and re-arms HitCycles later; a load, or a MEMBAR, that finds
// the buffer holding stores waits for it to drain; a load then runs on
// the run's bus.Call and ends at the wake its transfer ends. The wake
// ending the last load resumes the process at once, with no fence.
type deviceRun struct {
	cpu           *CPU
	call          *bus.Call // made at the run's first load
	p             *sim.Process
	w             bus.PostedWrite // the register; the next store's value, or the last load's
	stores, loads int             // stores and loads not yet issued
	busy          bool            // a load is in flight
	fence         bool            // a MEMBAR: wait for the buffer to drain
}

// Probe implements sim.Spinner.
func (r *deviceRun) Probe() (sim.Time, bool) {
	if r.busy {
		r.w.Val, r.busy = r.call.EndLoad(), false
		if r.loads == 0 {
			return 0, true
		}
	}
	return r.next()
}

// next takes the run's next step at the current instant and returns
// the delay to its wake, sim.Parked when p waits for buffer space or a
// bus, or resume once nothing is left.
func (r *deviceRun) next() (sim.Time, bool) {
	c := r.cpu
	if r.stores > 0 {
		if c.sbQ.Len() >= params.StoreBufferDepth {
			c.sbFull.Inc()
			c.sbSpace.Await(r.p, nil)
			return sim.Parked, false
		}
		r.stores--
		c.sbQ.Push(r.w)
		r.w.Val++
		c.sbWork.Signal()
		return params.HitCycles, false // issue cost; completion is asynchronous
	}
	if r.loads == 0 && !r.fence {
		return 0, true
	}
	if c.sbQ.Len() > 0 {
		c.membarStalls.Inc()
		c.sbSpace.Await(r.p, nil)
		return sim.Parked, false
	}
	if r.loads == 0 {
		return 0, true
	}
	if r.call == nil {
		r.call = bus.NewCall(c.fab, nil)
	}
	r.loads--
	r.busy = true
	return r.call.BeginLoad(r.p, r.w.Dev, r.w.Reg), false
}

// drainStoreBuffer is the store buffer's bus engine, a driven process:
// it issues the oldest buffered store, which retired retires.
func (c *CPU) drainStoreBuffer() {
	if c.sbQ.Len() == 0 {
		c.sbWork.Await(c.sb.Process(), c.drainFn)
	} else {
		c.sb.UncachedStore(c.sbQ.Peek(), c.retired)
	}
}
