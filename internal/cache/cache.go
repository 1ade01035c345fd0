package cache

import (
	"fmt"
	"math"

	"repro/internal/bus"
	"repro/internal/params"
	"repro/internal/sim"
)

// line is one direct-mapped cache line (tags only: the simulation is
// timing-directed, payload bytes travel in the logical message layer).
// The tag is the block number (address / BlockBytes) in 32 bits, so a
// line packs into 8 bytes; every address in the node map (see
// machine's address constants) is far below the 256 GB this covers.
type line struct {
	tag   uint32
	state State
}

// holds reports whether l's tag is block number blk. The comparison is
// in 64 bits, so a block number too wide for a tag never matches.
func (l *line) holds(blk uint64) bool { return uint64(l.tag) == blk }

// retag points l at block number blk. Only fills retag, so the width
// check stays off the hit path.
func (l *line) retag(blk uint64) {
	if blk > math.MaxUint32 {
		panic(fmt.Sprintf("cache: address %#x is beyond the 32-bit block-number tag", blk*params.BlockBytes))
	}
	l.tag = uint32(blk)
}

// Cache is a direct-mapped MOESI cache attached to the memory bus.
// It serves the simulated processor's cachable loads and stores and
// snoops every coherent bus transaction.
type Cache struct {
	eng    *sim.Engine
	fabric *bus.Fabric
	name   string

	nlines uint64
	lines  []line

	// Interned counters: loads and stores are the innermost processor
	// operations, so the per-access bookkeeping must not hash strings.
	loadHit, loadMiss   *sim.Counter
	storeHit, storeMiss *sim.Counter
	writebacks          *sim.Counter
	snarfs, updates     *sim.Counter

	// Snarfing: load a block from an observed writeback when the
	// direct-mapped frame holds the same tag in Invalid state (§5.1.2).
	Snarf bool

	misses sim.Pool[Miss] // miss paths no access is using (GetMiss)
}

// New creates a cache of sizeBytes with 64-byte blocks and attaches it
// to the fabric's memory bus.
func New(e *sim.Engine, st *sim.Stats, f *bus.Fabric, name string, sizeBytes int) *Cache {
	n := uint64(sizeBytes / params.BlockBytes)
	if n == 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("cache: size %d is not a power-of-two number of blocks", sizeBytes))
	}
	c := &Cache{
		eng:        e,
		fabric:     f,
		name:       name,
		nlines:     n,
		lines:      make([]line, n),
		loadHit:    st.Counter(name + ".load.hit"),
		loadMiss:   st.Counter(name + ".load.miss"),
		storeHit:   st.Counter(name + ".store.hit"),
		storeMiss:  st.Counter(name + ".store.miss"),
		writebacks: st.Counter(name + ".writeback"),
		snarfs:     st.Counter(name + ".snarf"),
		updates:    st.Counter(name + ".update"),
	}
	f.Attach(c, params.MemoryBus)
	return c
}

// AgentName implements bus.Agent.
func (c *Cache) AgentName() string { return c.name }

// AgentClass implements bus.Agent.
func (c *Cache) AgentClass() params.AgentClass { return params.ClassProc }

// frame returns addr's block number and the line it maps to.
func (c *Cache) frame(addr uint64) (uint64, *line) {
	blk := addr / params.BlockBytes
	return blk, &c.lines[blk&(c.nlines-1)]
}

// StateOf returns the coherence state the cache holds for addr's block
// (Invalid if absent). Exposed for tests and assertions.
func (c *Cache) StateOf(addr uint64) State {
	blk, l := c.frame(addr)
	if l.holds(blk) && l.state.Valid() {
		return l.state
	}
	return Invalid
}

// Load performs one processor load (up to 8 bytes) at addr.
// Hits cost params.HitCycles; a miss runs the miss path (Miss).
func (c *Cache) Load(p *sim.Process, addr uint64) { c.access(p, addr, false) }

// Store performs one processor store (up to 8 bytes) at addr.
// Stores to Modified/Exclusive lines hit; anything else issues a
// coherent read-invalidate (see DESIGN.md bandwidth calibration).
func (c *Cache) Store(p *sim.Process, addr uint64) { c.access(p, addr, true) }

// access is Load, or Store when store is set. A miss runs on a Miss
// from the cache's pool while p spins, so p resumes once, when the
// line is filled.
func (c *Cache) access(p *sim.Process, addr uint64, store bool) {
	if c.Hit(addr, store) {
		p.Sleep(params.HitCycles)
		return
	}
	m := c.GetMiss()
	p.Spin(m.Start(p, addr, store), m)
	c.PutMiss(m)
}

// Hit is Load's hit check, or Store's when store is set, without its
// time: when the access would hit it counts the hit, as Load or Store
// does (a store leaves an Exclusive line Modified), and reports true;
// otherwise it changes nothing and reports false.
func (c *Cache) Hit(addr uint64, store bool) bool {
	blk, l := c.frame(addr)
	switch {
	case !l.holds(blk) || !l.state.Valid():
		return false
	case !store:
		c.loadHit.Inc()
	case l.state == Modified || l.state == Exclusive:
		c.storeHit.Inc()
		l.state = Modified
	default:
		return false
	}
	return true
}

// Miss is the miss path of one access: the line's dirty occupant's
// writeback, if any, then the fill, each a bus transaction that a
// bus.Call runs for the accessing process while it spins
// (sim.Process.Spin). Start issues the first transaction; at each
// wake that ends a transfer, Step ends it and issues the next, until
// the line is filled. Cache.Load and Cache.Store run their misses on
// one, and a load or store range's probe (package proc) runs each of
// its misses on one. A Miss serves one access at a time.
type Miss struct {
	c    *Cache
	call *bus.Call
	p    *sim.Process
	blk  uint64
	l    *line
	fill bus.Kind // CR for a load, CRI for a store
	wb   bool     // the transfer in flight is the writeback
	busy bool     // a transfer is in flight
}

// GetMiss takes a miss path from the cache's pool, for one access or
// one range: several processes may be accessing one cache at once.
func (c *Cache) GetMiss() *Miss {
	m := c.misses.Get()
	if m.c == nil {
		m.c, m.call = c, bus.NewCall(c.fabric, nil)
	}
	return m
}

// PutMiss returns m, with no transfer in flight, to the cache's pool.
func (c *Cache) PutMiss(m *Miss) { c.misses.Put(m) }

// Start begins the miss of p's load at addr, or store when store is
// set, which Hit has just reported: it counts the miss, evicts the
// line's occupant and issues the first transaction. It returns that
// transfer's length, or sim.Parked when p queued for a bus; either way
// p spins until Step reports the line filled. A store to a line whose
// tag matches (Shared or Owned) takes ownership without an eviction.
func (m *Miss) Start(p *sim.Process, addr uint64, store bool) sim.Time {
	c := m.c
	m.p, m.busy = p, true
	m.blk, m.l = c.frame(addr)
	l := m.l
	if store {
		c.storeMiss.Inc()
		m.fill = bus.CRI
	} else {
		c.loadMiss.Inc()
		m.fill = bus.CR
	}
	if !store || !l.holds(m.blk) {
		dirty := l.state.Dirty()
		l.state = Invalid
		if dirty {
			c.writebacks.Inc()
			m.wb = true
			return m.call.Begin(p, bus.Tx{Kind: bus.WB, Addr: uint64(l.tag) * params.BlockBytes, Initiator: c})
		}
	}
	return m.call.Begin(p, bus.Tx{Kind: m.fill, Addr: m.blk * params.BlockBytes, Initiator: c})
}

// Step runs at the wake that ends the transfer in flight: it ends it,
// then after the writeback issues the fill and returns its length (or
// sim.Parked) with filled false, and after the fill installs the line
// and reports filled. With no transfer in flight it changes nothing
// and reports filled, so a probe may call it again at the same wake.
func (m *Miss) Step() (d sim.Time, filled bool) {
	if !m.busy {
		return 0, true
	}
	res := m.call.End()
	if m.wb {
		m.wb = false
		return m.call.Begin(m.p, bus.Tx{Kind: m.fill, Addr: m.blk * params.BlockBytes, Initiator: m.c}), false
	}
	m.busy = false
	l := m.l
	l.retag(m.blk)
	switch {
	case m.fill == bus.CRI:
		l.state = Modified
	case res.Shared:
		l.state = Shared
	default:
		l.state = Exclusive
	}
	m.p, m.l = nil, nil
	return 0, true
}

// Probe implements sim.Spinner for a one-word access's miss: it steps
// the miss on, and resumes the process once the line is filled.
func (m *Miss) Probe() (sim.Time, bool) { return m.Step() }

// SnoopTx implements bus.Agent: the MOESI snooping side.
func (c *Cache) SnoopTx(tx bus.Tx, isHome bool) bus.Snoop {
	blk, l := c.frame(tx.Addr)
	if !l.holds(blk) || !l.state.Valid() {
		if tx.Kind == bus.WB && c.Snarf && l.holds(blk) {
			// Data snarfing: frame already allocated to this tag, in
			// Invalid state; capture the block from the writeback.
			l.state = Shared
			c.snarfs.Inc()
			return bus.Snoop{HasCopy: true}
		}
		if tx.Kind == bus.UP && l.holds(blk) {
			// Update push: refill the invalidated frame in place.
			l.state = Shared
			c.updates.Inc()
			return bus.Snoop{HasCopy: true}
		}
		return bus.Snoop{}
	}
	switch tx.Kind {
	case bus.CR:
		sn := bus.Snoop{HasCopy: true, WillSupply: l.state.CanSupply()}
		switch l.state {
		case Modified:
			l.state = Owned
		case Exclusive:
			l.state = Shared
		}
		return sn
	case bus.CRI:
		sn := bus.Snoop{HasCopy: true, WillSupply: l.state.CanSupply()}
		l.state = Invalid
		return sn
	case bus.CI:
		l.state = Invalid
		return bus.Snoop{HasCopy: true}
	case bus.WB:
		// Another agent wrote the block back to its home; our copy (if
		// we somehow held one) is unaffected under MOESI.
		return bus.Snoop{HasCopy: true}
	case bus.UP:
		// An update push refreshes our (valid) copy in place.
		return bus.Snoop{HasCopy: true}
	}
	return bus.Snoop{}
}

// Memory is the main-memory home agent on the memory bus. It supplies
// data when no cache owns a block and absorbs writebacks. Timing is
// carried entirely by the bus transfer costs (Table 2's 42-cycle
// memory-to-cache transfer equals the cache-to-cache cost).
type Memory struct {
	name string
}

// NewMemory creates the memory agent and attaches it to the fabric.
func NewMemory(f *bus.Fabric, name string) *Memory {
	m := &Memory{name: name}
	f.Attach(m, params.MemoryBus)
	return m
}

// AgentName implements bus.Agent.
func (m *Memory) AgentName() string { return m.name }

// AgentClass implements bus.Agent.
func (m *Memory) AgentClass() params.AgentClass { return params.ClassMemory }

// SnoopTx implements bus.Agent. Memory is passive: the fabric routes
// supply duty to the home when no cache owner responds.
func (m *Memory) SnoopTx(tx bus.Tx, isHome bool) bus.Snoop {
	return bus.Snoop{}
}
