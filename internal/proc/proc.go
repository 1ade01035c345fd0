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

	runFree []*hitRun // hitRuns no range is using (getRun)

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
// Load or Store would charge it, but a run of hits is one Spin: the
// process checks the first hit itself, and a hitRun probe checks each
// later word at the wake where the process would have, so the process
// resumes once per run of hits instead of once per word. A hit with no
// word after it just sleeps. A miss takes Cache.Load or Cache.Store's
// miss path on the process.
func (c *CPU) wordRange(p *sim.Process, addr uint64, bytes int, store bool) {
	var r *hitRun
	for a, end := addr, addr+uint64(max(bytes, 0)); a < end; {
		switch {
		case !c.hit(a, store):
			if store {
				c.cache.Store(p, a)
			} else {
				c.cache.Load(p, a)
			}
			a += 8
		case end-a <= 8:
			p.Sleep(params.HitCycles)
			a = end
		default:
			if r == nil {
				r = c.getRun()
			}
			r.addr, r.end, r.store = a+8, end, store
			p.Spin(params.HitCycles, r)
			a = r.addr
		}
	}
	if r != nil {
		c.runFree = append(c.runFree, r)
	}
}

// hit is Load's or Store's hit check at addr, without its time.
func (c *CPU) hit(addr uint64, store bool) bool {
	if store {
		return c.cache.StoreHit(addr)
	}
	return c.cache.LoadHit(addr)
}

// getRun takes a hitRun from the CPU's pool: several processes may be
// in a range on one CPU at once, so each range gets its own.
func (c *CPU) getRun() *hitRun {
	n := len(c.runFree)
	if n == 0 {
		return &hitRun{cpu: c}
	}
	r := c.runFree[n-1]
	c.runFree = c.runFree[:n-1]
	return r
}

// hitRun runs the hit words of one range as engine probes
// (sim.Process.Spin). At each wake — the end of the previous word's
// hit — it checks the next word as the process would: on a hit it
// counts it and re-arms HitCycles later, the process's Sleep; at the
// end of the range or on a miss it resumes the process there, having
// changed nothing. A snoop that lands mid-run is seen at the same word
// as in a per-word loop, since each probe runs at that wake's own
// (time, seq) position.
type hitRun struct {
	cpu       *CPU
	addr, end uint64 // the word the pending wake checks, and the range's end
	store     bool
}

// Probe implements sim.Spinner.
func (r *hitRun) Probe() (sim.Time, bool) {
	if r.addr >= r.end || !r.cpu.hit(r.addr, r.store) {
		return 0, true
	}
	r.addr += 8
	return params.HitCycles, false
}

// UncachedLoad performs a blocking uncached 8-byte load from a device
// register and returns the device's value. Like SPARC TSO device
// access, it first drains the store buffer so posted uncached stores
// reach the device before the load.
func (c *CPU) UncachedLoad(p *sim.Process, dev bus.Device, reg uint64) uint64 {
	c.Membar(p)
	return c.fab.UncachedLoad(p, dev, reg)
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
