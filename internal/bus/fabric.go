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
// preserves the same contention behaviour (a crossing read or uncached
// load holds both buses for its whole transfer; see DESIGN.md).
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
	// and coherent invalidations, but blocks on reads"), drained by the
	// driven process bridge.
	bridgeQ     sim.FIFO[postedWrite]
	bridgeCond  sim.Cond // signalled when bridgeQ gains an entry
	bridgeSpace sim.Cond // signalled when bridgeQ frees an entry
	bridgeWaits uint64   // posted writes that found bridgeQ full
	bridge      *sim.Process
	// The bridge's steps, bound once at construction.
	drainFn, heldFn, wroteFn func()
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
		f.drainFn, f.wroteFn = f.bridgeDrain, f.bridgeWrote
		f.heldFn = func() { f.IO.OccupyThen(f.bridge, sim.Time(params.UncachedStoreCost(params.IOBus)), f.wroteFn) }
		f.bridge = e.Drive(name+".bridge", f.drainFn)
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

// txn is one transaction in progress: a coherent one, or an uncached
// load (coherent unset) holding its buses for its round trip.
type txn struct {
	t        Tx
	coherent bool
	home     Agent
	crossing bool     // the transaction holds both buses
	load     sim.Time // an uncached load's round trip
}

// begin checks tx against the address map and finds its home and
// buses.
func (f *Fabric) begin(tx Tx) txn {
	region := f.Lookup(tx.Addr)
	if !region.Cachable && tx.Kind != CI {
		panic(fmt.Sprintf("bus: coherent %v on uncachable region %q", tx.Kind, region.Name))
	}
	initLoc := f.locOf(tx.Initiator)
	return txn{t: tx, coherent: true, home: region.Home, crossing: initLoc == params.IOBus || region.Loc == params.IOBus}
}

// transfer runs x's snoop and timing phases once its buses are held:
// it returns how long the buses stay held and the snoop summary.
func (f *Fabric) transfer(x txn) (sim.Time, Result) {
	if !x.coherent {
		f.hold(x, x.load)
		return x.load, Result{}
	}
	// Snoop phase: every agent on every involved bus sees the
	// transaction and updates its state before data moves.
	t, home, crossing := x.t, x.home, x.crossing
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
	switch t.Kind {
	case CR, CRI:
		memCost = sim.Time(params.BlockTransferCost(params.MemoryBus, supplier.AgentClass(), t.Initiator.AgentClass()))
		if crossing {
			ioCost = sim.Time(params.BlockTransferCost(params.IOBus, supplier.AgentClass(), t.Initiator.AgentClass()))
		}
	case WB, UP:
		memCost = sim.Time(params.BlockTransferCost(params.MemoryBus, t.Initiator.AgentClass(), home.AgentClass()))
		if crossing {
			ioCost = sim.Time(params.BlockTransferCost(params.IOBus, t.Initiator.AgentClass(), home.AgentClass()))
		}
	case CI:
		memCost = sim.Time(params.InvalidateCost(params.MemoryBus))
		if crossing {
			ioCost = sim.Time(params.InvalidateCost(params.IOBus))
		}
	default:
		panic("bus: bad tx kind")
	}

	f.txCount[t.Kind].Inc()
	dur := memCost
	if ioCost > dur {
		dur = ioCost
	}
	f.hold(x, dur)
	return dur, Result{Shared: shared, Supplier: supplier.AgentClass()}
}

// hold accounts d cycles of occupancy on x's buses: a crossing
// transaction holds both for its whole transfer (the bridge "blocks on
// reads").
func (f *Fabric) hold(x txn, d sim.Time) {
	f.Mem.account(d)
	if x.crossing {
		f.IO.account(d)
	}
}

// end releases x's buses.
func (f *Fabric) end(x txn) {
	if x.crossing {
		f.IO.Release()
	}
	f.Mem.Release()
}

// BridgeFullWaits reports how many times a posted write waited for
// space in the I/O bridge's buffer.
func (f *Fabric) BridgeFullWaits() uint64 { return f.bridgeWaits }

// bridgeDrain is the I/O bridge's posted-write engine, a driven
// process: it forwards buffered uncached stores onto the I/O bus in
// order, each holding the bus for its occupancy (heldFn, bridgeWrote).
func (f *Fabric) bridgeDrain() {
	if f.bridgeQ.Len() == 0 {
		f.bridgeCond.Await(f.bridge, f.drainFn)
	} else if f.IO.AcquireThen(f.bridge, f.heldFn) {
		f.heldFn()
	}
}

func (f *Fabric) bridgeWrote() {
	w := f.bridgeQ.Peek()
	w.dev.RegWrite(w.reg, w.val)
	f.IO.Release()
	f.bridgeQ.Pop()
	f.bridgeSpace.Signal()
	f.bridgeDrain()
}

// Call is a process's handle on its node's buses: the one way to run a
// coherent transaction or make an uncached load or store. Do runs a
// transaction for a driven process and then runs its then callback as
// the process's step. Begin and End run one for a spinning coroutine
// (sim.Process.Spin), from its probe, and BeginLoad and EndLoad an
// uncached load: arbitration takes the same FIFOMutex steps, and the
// end of the transfer is the coroutine's next plain wake. Either way
// the wakes take the (time, seq) keys a coroutine blocking on each bus
// and sleeping through the transfer would. A Call carries one
// operation at a time; its phases are method values bound once, so
// issuing one allocates nothing.
type Call struct {
	f    *Fabric
	p    *sim.Process
	then func()

	x        txn            // the transaction in progress
	res      Result         // its snoop summary
	ended    func()         // the step ending x's transfer: doDone, or nil for a spinning coroutine's plain wake
	loc      params.BusKind // the uncached access's device location, register and stored value
	dev      Device
	reg, val uint64

	// The phases, bound once as method values.
	heldFn, busesFn, doDoneFn, spaceFn, storeHeldFn, storeDoneFn func()
}

// NewCall returns process p's handle on f's buses. A Call used only
// through Begin may have no process yet (p nil): Begin names it.
func NewCall(f *Fabric, p *sim.Process) *Call {
	c := &Call{f: f, p: p}
	c.heldFn, c.busesFn, c.doDoneFn = c.held, c.buses, c.doDone
	c.spaceFn, c.storeHeldFn, c.storeDoneFn = c.storeSpace, c.storeHeld, c.storeDone
	return c
}

// Process returns the process the Call belongs to.
func (c *Call) Process() *sim.Process { return c.p }

// Do runs tx — arbitration, snoop, transfer, release — then runs then
// as the process's step.
func (c *Call) Do(tx Tx, then func()) {
	c.then, c.ended = then, c.doDoneFn
	if d := c.begin(tx); d != sim.Parked {
		c.p.After(d, c.doDoneFn)
	}
}

func (c *Call) doDone() {
	c.End()
	c.then()
}

// Begin starts tx for p, a spinning coroutine whose probe (or whose
// Spin call) issues it. When p holds its buses at once it runs the
// snoop and returns the transfer's length: the caller re-arms p's wake
// that far. Otherwise it returns sim.Parked: p has queued for a bus,
// and the grant's step runs the snoop and arms p's plain wake at the
// transfer's end. At that wake, p's probe calls End.
func (c *Call) Begin(p *sim.Process, tx Tx) sim.Time {
	c.p, c.ended = p, nil
	return c.begin(tx)
}

// begin arbitrates for tx's buses; see Begin.
func (c *Call) begin(tx Tx) sim.Time {
	c.x = c.f.begin(tx)
	return c.arbitrate()
}

// arbitrate queues for c.x's buses, memory bus first, and runs the
// transfer once both are held; see Begin.
func (c *Call) arbitrate() sim.Time {
	if !c.f.Mem.AcquireThen(c.p, c.heldFn) || c.x.crossing && !c.f.IO.AcquireThen(c.p, c.busesFn) {
		return sim.Parked
	}
	return c.transfer()
}

// held is the step run once the memory bus is granted.
func (c *Call) held() {
	if !c.x.crossing || c.f.IO.AcquireThen(c.p, c.busesFn) {
		c.buses()
	}
}

// buses is the step run once every bus of the transaction is held.
func (c *Call) buses() { c.p.After(c.transfer(), c.ended) }

// transfer runs the snoop and returns how long the buses stay held.
func (c *Call) transfer() sim.Time {
	dur, res := c.f.transfer(c.x)
	c.res = res
	return dur
}

// End releases the transaction's buses at the end of its transfer and
// returns its snoop summary.
func (c *Call) End() Result {
	c.f.end(c.x)
	c.x = txn{}
	return c.res
}

// BeginLoad starts an 8-byte uncached load of dev's register reg for p,
// a spinning coroutine, as Begin starts a transaction: it returns the
// load's length, or sim.Parked when p queued for a bus. A load from an
// I/O-bus device crosses, holding the memory bus and then the I/O bus;
// one from a cache-bus device takes no bus. At the wake ending the
// load, p's probe calls EndLoad.
func (c *Call) BeginLoad(p *sim.Process, dev Device, reg uint64) sim.Time {
	c.p, c.ended = p, nil
	c.loc, c.dev, c.reg = c.f.locOf(dev), dev, reg
	c.f.uncLoad[c.loc].Inc()
	d := sim.Time(params.UncachedLoadCost(c.loc))
	if c.loc == params.CacheBus {
		return d
	}
	c.x = txn{crossing: c.loc == params.IOBus, load: d}
	return c.arbitrate()
}

// EndLoad ends the load at the end of its transfer: it reads the
// register's value at that instant, then releases the load's buses.
func (c *Call) EndLoad() uint64 {
	v := c.dev.RegRead(c.reg)
	if c.loc != params.CacheBus {
		c.End()
	}
	c.dev = nil
	return v
}

// UncachedStore performs one 8-byte uncached store of val to dev's
// register reg, then runs then. The processor's store buffer issues
// its stores here, so the architectural "postedness" is upstream; the
// store occupies the memory bus and, for an I/O-bus device, waits for
// room in the bridge's buffer, which takes the write and releases the
// memory bus at once.
func (c *Call) UncachedStore(dev Device, reg, val uint64, then func()) {
	c.loc, c.dev, c.reg, c.val, c.then = c.f.locOf(dev), dev, reg, val, then
	c.f.uncStore[c.loc].Inc()
	if c.loc == params.CacheBus {
		c.p.After(sim.Time(params.UncachedStoreCost(c.loc)), c.storeDoneFn)
		return
	}
	c.storeSpace()
}

func (c *Call) storeSpace() {
	if c.loc == params.IOBus && c.f.bridgeQ.Len() >= params.BridgeBufferDepth {
		c.f.bridgeWaits++
		c.f.bridgeSpace.Await(c.p, c.spaceFn)
		return
	}
	if c.f.Mem.AcquireThen(c.p, c.storeHeldFn) {
		c.storeHeld()
	}
}

func (c *Call) storeHeld() {
	c.f.Mem.OccupyThen(c.p, sim.Time(params.UncachedStoreCost(params.MemoryBus)), c.storeDoneFn)
}

func (c *Call) storeDone() {
	if c.loc == params.IOBus {
		c.f.bridgeQ.Push(postedWrite{c.dev, c.reg, c.val})
		c.f.bridgeCond.Signal()
	} else {
		c.dev.RegWrite(c.reg, c.val)
	}
	if c.loc != params.CacheBus {
		c.f.Mem.Release()
	}
	c.dev = nil
	c.then()
}
