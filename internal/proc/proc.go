// Package proc models the node's processor: a 200 MHz dual-issue
// SPARC-like core (paper §4.1). The model is communication-directed:
// computation is an explicit cycle cost, cachable accesses go through
// the MOESI cache, uncached device accesses go over the buses, and a
// store buffer makes uncached stores posted (with MEMBAR to drain it,
// as the paper's three-cycle CDR handshake requires).
package proc

import (
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/params"
	"repro/internal/sim"
)

// pendingStore is one store-buffer entry.
type pendingStore struct {
	dev bus.Device
	reg uint64
	val uint64
}

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

	sbQ     sim.FIFO[pendingStore]
	sbWork  sim.Cond
	sbSpace sim.Cond
	// The store buffer's drain is a driven process (drainStoreBuffer)
	// issuing its stores through sb.
	sb               *bus.Call
	drainFn, retired func()

	// Several processes may be in a range or an uncached load on one
	// CPU at once, so each takes its own run from these pools.
	runs  sim.Pool[wordRun]
	loads sim.Pool[loadRun]

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
	c.wordRange(p, addr, bytes, false)
}

// StoreRange issues word stores covering [addr, addr+bytes).
func (c *CPU) StoreRange(p *sim.Process, addr uint64, bytes int) {
	c.wordRange(p, addr, bytes, true)
}

// wordRange issues one cachable access per 8-byte word of [addr,
// addr+bytes): loads, or stores when store is set. Each word costs what
// Load or Store would charge it, but the whole range is one Spin: the
// process checks the first word itself, and a wordRun probe checks each
// later word at the wake where the process would have and runs each
// miss's bus transactions as driven steps, so the process resumes once,
// at the end of the range.
func (c *CPU) wordRange(p *sim.Process, addr uint64, bytes int, store bool) {
	r := c.runs.Get()
	r.cache, r.p, r.addr, r.end, r.store = c.cache, p, addr, addr+uint64(max(bytes, 0)), store
	r.miss = c.cache.GetMiss()
	if d, done := r.next(); !done {
		p.Spin(d, r)
	}
	c.cache.PutMiss(r.miss)
	r.p, r.miss = nil, nil
	c.runs.Put(r)
}

// wordRun runs the words of one range as engine probes
// (sim.Process.Spin). At each wake — the end of the previous word's hit
// or of a miss's transfer — it does what the process would: a hit
// counts and re-arms HitCycles later, the process's Sleep; a miss runs
// on the range's cache.Miss, whose transfers end at the later wakes;
// at the end of the range it resumes the process, and a second call at
// that wake changes nothing. A snoop that lands mid-range is seen at
// the same word as in a per-word loop, since each probe runs at that
// wake's own (time, seq) position.
type wordRun struct {
	cache     *cache.Cache
	miss      *cache.Miss
	p         *sim.Process
	addr, end uint64 // the next word to check, and the range's end
	store     bool
}

// Probe implements sim.Spinner.
func (r *wordRun) Probe() (sim.Time, bool) {
	if d, filled := r.miss.Step(); !filled {
		return d, false
	}
	return r.next()
}

// next checks the word at r.addr at the current instant: the end of
// the range resumes the process; a hit counts and waits out its cycle;
// a miss starts on r.miss, which finishes the word.
func (r *wordRun) next() (sim.Time, bool) {
	a := r.addr
	if a >= r.end {
		return 0, true
	}
	r.addr += 8
	if r.cache.Hit(a, r.store) {
		return params.HitCycles, false
	}
	return r.miss.Start(r.p, a, r.store), false
}

// UncachedLoad performs n back-to-back uncached 8-byte loads of a
// device register and returns the last one's value. Like SPARC TSO
// device access, each load first drains the store buffer so posted
// uncached stores reach the device before it. The loads are one Spin:
// the process drains the buffer and issues the first load itself, and
// a loadRun probe ends each load at the wake where the process would
// have and issues the next, so the process resumes once — or once more
// per later load that finds the buffer holding another process's
// stores, which the process then drains itself.
func (c *CPU) UncachedLoad(p *sim.Process, dev bus.Device, reg uint64, n int) uint64 {
	r := c.loads.Get()
	if r.cpu == nil {
		r.cpu, r.call = c, bus.NewCall(c.fab, nil)
	}
	r.p, r.dev, r.reg, r.left = p, dev, reg, n
	for r.left > 0 {
		c.Membar(p)
		p.Spin(r.issue(), r)
	}
	v := r.val
	r.p, r.dev = nil, nil
	c.loads.Put(r)
	return v
}

// loadRun runs the loads of one UncachedLoad as engine probes
// (sim.Process.Spin) on its own bus.Call. At the wake that ends a load
// it reads the register and releases the buses, as the process would;
// then, with loads left and an empty store buffer, it issues the next,
// and otherwise resumes the process, and a second call at that wake
// changes nothing.
type loadRun struct {
	cpu  *CPU
	call *bus.Call
	p    *sim.Process
	dev  bus.Device
	reg  uint64
	left int    // loads not yet issued
	busy bool   // a load is in flight
	val  uint64 // the last ended load's value
}

// issue starts the next load: its length, or sim.Parked.
func (r *loadRun) issue() sim.Time {
	r.left--
	r.busy = true
	return r.call.BeginLoad(r.p, r.dev, r.reg)
}

// Probe implements sim.Spinner.
func (r *loadRun) Probe() (sim.Time, bool) {
	if !r.busy {
		return 0, true
	}
	r.val, r.busy = r.call.EndLoad(), false
	if r.left == 0 || r.cpu.sbQ.Len() > 0 {
		return 0, true
	}
	return r.issue(), false
}

// UncachedStore posts an uncached 8-byte store through the store
// buffer: the processor stalls only when the buffer is full. The
// store reaches the device when the drain process issues it on the
// bus (use Membar to wait for that).
func (c *CPU) UncachedStore(p *sim.Process, dev bus.Device, reg, val uint64) {
	for c.sbQ.Len() >= params.StoreBufferDepth {
		c.sbFull.Inc()
		c.sbSpace.Wait(p)
	}
	c.sbQ.Push(pendingStore{dev, reg, val})
	c.sbWork.Signal()
	p.Sleep(params.HitCycles) // issue cost; completion is asynchronous
}

// Membar stalls until the store buffer has fully drained, including
// the store currently occupying the bus.
func (c *CPU) Membar(p *sim.Process) {
	for c.sbQ.Len() > 0 {
		c.membarStalls.Inc()
		c.sbSpace.Wait(p)
	}
}

// drainStoreBuffer is the store buffer's bus engine, a driven process:
// it issues the oldest buffered store, which retired retires.
func (c *CPU) drainStoreBuffer() {
	if c.sbQ.Len() == 0 {
		c.sbWork.Await(c.sb.Process(), c.drainFn)
	} else {
		e := c.sbQ.Peek()
		c.sb.UncachedStore(e.dev, e.reg, e.val, c.retired)
	}
}
