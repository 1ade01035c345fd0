package bus

import (
	"fmt"

	"repro/internal/params"
	"repro/internal/sim"
)

// Region describes one range of the node's physical address space:
// who its home agent is, which bus the home sits on, and whether the
// range may be cached.
type Region struct {
	Name     string
	Base     uint64
	Size     uint64
	Home     Agent
	Loc      params.BusKind
	Cachable bool
}

// Contains reports whether addr falls in the region.
func (r *Region) Contains(addr uint64) bool {
	return addr >= r.Base && addr < r.Base+r.Size
}

// postedWrite is an uncached store buffered in the I/O bridge.
type postedWrite struct {
	dev Device
	reg uint64
	val uint64
}

// Fabric is a node's bus complex: the memory bus, an optional I/O bus
// behind a bridge, and the address map. All processor-, cache-, and
// device-initiated traffic flows through it.
//
// Deadlock-freedom: crossing transactions always acquire the memory
// bus before the I/O bus. The paper's bridge instead NACKs the I/O
// side on simultaneous initiation with a fairness guarantee (§4.1);
// the fixed lock order is an equivalent deterministic discipline that
// preserves the same contention behaviour (both buses are held for
// the duration of blocking crossing reads; see DESIGN.md).
type Fabric struct {
	eng *sim.Engine

	Mem *Bus
	IO  *Bus // nil when the node has no I/O-bus devices

	regions []Region
	loc     map[Agent]params.BusKind

	// Interned counters for the transaction hot path: one per
	// transaction kind, plus per-location uncached access counts.
	txCount  [UP + 1]*sim.Counter
	uncLoad  [params.IOBus + 1]*sim.Counter
	uncStore [params.IOBus + 1]*sim.Counter

	// I/O bridge posted-write queue (paper: "the bridge buffers writes
	// and coherent invalidations, but blocks on reads").
	bridgeQ     sim.FIFO[postedWrite]
	bridgeCond  *sim.Cond // signalled when bridgeQ gains an entry
	bridgeSpace *sim.Cond // signalled when bridgeQ frees an entry

	// txFree recycles transaction boxes: the Tx escapes through the
	// SnoopTx interface call, so without a free list every coherent
	// transaction costs one heap allocation (the steady-state alloc
	// pin fails loudly). Depth equals the most transactions ever
	// simultaneously in flight on this node's buses.
	txFree []*Tx
}

// getTx pops a recycled Tx box (or allocates the pool's next slot)
// and fills it with tx.
func (f *Fabric) getTx(tx Tx) *Tx {
	n := len(f.txFree)
	if n == 0 {
		t := new(Tx)
		*t = tx
		return t
	}
	t := f.txFree[n-1]
	f.txFree = f.txFree[:n-1]
	*t = tx
	return t
}

// putTx returns a Tx box to the free list. The box must not be
// referenced after the call; snoopers see it only during snoopAll.
func (f *Fabric) putTx(t *Tx) {
	t.Initiator = nil // drop the agent reference while pooled
	f.txFree = append(f.txFree, t)
}

// NewFabric builds the bus complex. withIO adds the 50 MHz I/O bus and
// its bridge drain process. name prefixes stats keys (e.g. "node3").
func NewFabric(e *sim.Engine, st *sim.Stats, name string, withIO bool) *Fabric {
	f := &Fabric{
		eng: e,
		Mem: New(st, name+".membus"),
		loc: make(map[Agent]params.BusKind),
	}
	for k := CR; k <= UP; k++ {
		f.txCount[k] = st.Counter("tx." + k.String())
	}
	for _, l := range []params.BusKind{params.CacheBus, params.MemoryBus, params.IOBus} {
		f.uncLoad[l] = st.Counter("unc.load." + l.String())
		f.uncStore[l] = st.Counter("unc.store." + l.String())
	}
	if withIO {
		f.IO = New(st, name+".iobus")
		f.bridgeCond = sim.NewCond()
		f.bridgeSpace = sim.NewCond()
		e.Spawn(name+".bridge", f.bridgeDrain)
	}
	return f
}

// AddRegion installs an address range in the map.
func (f *Fabric) AddRegion(r Region) {
	for i := range f.regions {
		o := &f.regions[i]
		if r.Base < o.Base+o.Size && o.Base < r.Base+r.Size {
			panic(fmt.Sprintf("bus: region %q overlaps %q", r.Name, o.Name))
		}
	}
	f.regions = append(f.regions, r)
}

// Attach registers an agent as a snooper on the bus at loc.
func (f *Fabric) Attach(a Agent, loc params.BusKind) {
	f.loc[a] = loc
	switch loc {
	case params.MemoryBus:
		f.Mem.Attach(a)
	case params.IOBus:
		if f.IO == nil {
			panic("bus: attaching to absent I/O bus")
		}
		f.IO.Attach(a)
	case params.CacheBus:
		// Cache-bus devices are not snoopers; accesses bypass buses.
	default:
		panic("bus: bad location")
	}
}

// Lookup resolves addr to its region; it panics on unmapped addresses,
// which always indicate a simulator bug.
func (f *Fabric) Lookup(addr uint64) *Region {
	for i := range f.regions {
		if f.regions[i].Contains(addr) {
			return &f.regions[i]
		}
	}
	panic(fmt.Sprintf("bus: unmapped address %#x", addr))
}

// locOf returns the bus an agent is attached to.
func (f *Fabric) locOf(a Agent) params.BusKind {
	l, ok := f.loc[a]
	if !ok {
		panic("bus: agent not attached: " + a.AgentName())
	}
	return l
}

// Do runs one coherent transaction to completion: arbitration, snoop,
// data transfer, release. It blocks the calling process for the
// transaction's duration and returns the snoop summary.
func (f *Fabric) Do(p *sim.Process, tx Tx) Result {
	region := f.Lookup(tx.Addr)
	if !region.Cachable && tx.Kind != CI {
		panic(fmt.Sprintf("bus: coherent %v on uncachable region %q", tx.Kind, region.Name))
	}
	initLoc := f.locOf(tx.Initiator)
	crossing := initLoc == params.IOBus || region.Loc == params.IOBus

	// The snoop phase hands the Tx across the SnoopTx interface, which
	// forces it to the heap; route it through the free list so the box
	// is recycled instead of allocated per transaction.
	t := f.getTx(tx)

	f.Mem.Acquire(p)
	if crossing {
		f.IO.Acquire(p)
	}

	// Snoop phase: every agent on every involved bus sees the
	// transaction and updates its state before data moves.
	home := region.Home
	shared, supplier := f.Mem.snoopAll(t, home)
	if crossing {
		s2, sup2 := f.IO.snoopAll(t, home)
		shared = shared || s2
		if sup2 != nil {
			supplier = sup2
		}
	}
	if supplier == nil {
		supplier = home
	}

	// Timing phase (Table 2).
	var memCost, ioCost sim.Time
	switch tx.Kind {
	case CR, CRI:
		memCost = sim.Time(params.BlockTransferCost(params.MemoryBus, supplier.AgentClass(), tx.Initiator.AgentClass()))
		if crossing {
			ioCost = sim.Time(params.BlockTransferCost(params.IOBus, supplier.AgentClass(), tx.Initiator.AgentClass()))
		}
	case WB, UP:
		memCost = sim.Time(params.BlockTransferCost(params.MemoryBus, tx.Initiator.AgentClass(), home.AgentClass()))
		if crossing {
			ioCost = sim.Time(params.BlockTransferCost(params.IOBus, tx.Initiator.AgentClass(), home.AgentClass()))
		}
	case CI:
		memCost = sim.Time(params.InvalidateCost(params.MemoryBus))
		if crossing {
			ioCost = sim.Time(params.InvalidateCost(params.IOBus))
		}
	default:
		panic("bus: bad tx kind")
	}

	f.txCount[tx.Kind].Inc()
	dur := memCost
	if ioCost > dur {
		dur = ioCost
	}
	// Blocking crossing transactions hold both buses for the whole
	// transfer (the bridge "blocks on reads").
	f.Mem.busy.AddBusy(dur)
	f.Mem.cycles.Add(uint64(dur))
	if crossing {
		f.IO.busy.AddBusy(dur)
		f.IO.cycles.Add(uint64(dur))
	}
	p.Sleep(dur)

	if crossing {
		f.IO.Release()
	}
	f.Mem.Release()

	f.putTx(t)
	return Result{Shared: shared, Supplier: supplier.AgentClass()}
}

// UncachedLoad performs a blocking 8-byte uncached load from a device
// register and returns the value the device reports at completion.
func (f *Fabric) UncachedLoad(p *sim.Process, dev Device, reg uint64) uint64 {
	loc := f.locOf(dev)
	f.uncLoad[loc].Inc()
	switch loc {
	case params.CacheBus:
		p.Sleep(sim.Time(params.UncachedLoadCost(loc)))
		return dev.RegRead(reg)
	case params.MemoryBus:
		f.Mem.Acquire(p)
		f.Mem.Occupy(p, sim.Time(params.UncachedLoadCost(loc)))
		v := dev.RegRead(reg)
		f.Mem.Release()
		return v
	case params.IOBus:
		cost := sim.Time(params.UncachedLoadCost(loc))
		f.Mem.Acquire(p)
		f.IO.Acquire(p)
		f.Mem.busy.AddBusy(cost)
		f.Mem.cycles.Add(uint64(cost))
		f.IO.busy.AddBusy(cost)
		f.IO.cycles.Add(uint64(cost))
		p.Sleep(cost)
		v := dev.RegRead(reg)
		f.IO.Release()
		f.Mem.Release()
		return v
	}
	panic("bus: bad device location")
}

// UncachedStore performs one 8-byte uncached store to a device
// register. The call is made by the processor's store-buffer drain
// process, so the architectural "postedness" is upstream; here the
// store occupies the memory bus and, for I/O-bus devices, is buffered
// in the bridge (the memory bus is released as soon as the bridge
// accepts the write).
func (f *Fabric) UncachedStore(p *sim.Process, dev Device, reg, val uint64) {
	loc := f.locOf(dev)
	f.uncStore[loc].Inc()
	switch loc {
	case params.CacheBus:
		p.Sleep(sim.Time(params.UncachedStoreCost(loc)))
		dev.RegWrite(reg, val)
	case params.MemoryBus:
		f.Mem.Acquire(p)
		f.Mem.Occupy(p, sim.Time(params.UncachedStoreCost(params.MemoryBus)))
		dev.RegWrite(reg, val)
		f.Mem.Release()
	case params.IOBus:
		for f.bridgeQ.Len() >= params.BridgeBufferDepth {
			f.bridgeSpace.Wait(p)
		}
		f.Mem.Acquire(p)
		f.Mem.Occupy(p, sim.Time(params.UncachedStoreCost(params.MemoryBus)))
		f.bridgeQ.Push(postedWrite{dev, reg, val})
		f.bridgeCond.Signal()
		f.Mem.Release()
	default:
		panic("bus: bad device location")
	}
}

// bridgeDrain is the I/O bridge's posted-write engine: it forwards
// buffered uncached stores onto the I/O bus in order.
func (f *Fabric) bridgeDrain(p *sim.Process) {
	for {
		for f.bridgeQ.Len() == 0 {
			f.bridgeCond.Wait(p)
		}
		w := f.bridgeQ.Peek()
		f.IO.Acquire(p)
		f.IO.Occupy(p, sim.Time(params.UncachedStoreCost(params.IOBus)))
		w.dev.RegWrite(w.reg, w.val)
		f.IO.Release()
		f.bridgeQ.Pop()
		f.bridgeSpace.Signal()
	}
}
