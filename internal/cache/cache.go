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
// Hits cost params.HitCycles; misses evict + fill over the bus.
func (c *Cache) Load(p *sim.Process, addr uint64) {
	if c.LoadHit(addr) {
		p.Sleep(params.HitCycles)
		return
	}
	blk, l := c.frame(addr)
	c.loadMiss.Inc()
	c.evict(p, l)
	res := c.fabric.Do(p, bus.Tx{Kind: bus.CR, Addr: blk * params.BlockBytes, Initiator: c})
	l.retag(blk)
	if res.Shared {
		l.state = Shared
	} else {
		l.state = Exclusive
	}
}

// LoadHit is Load's hit check without its time: when addr's block is
// valid in the cache it counts the load hit, as Load does, and reports
// true; otherwise it changes nothing and reports false.
func (c *Cache) LoadHit(addr uint64) bool {
	blk, l := c.frame(addr)
	if l.holds(blk) && l.state.Valid() {
		c.loadHit.Inc()
		return true
	}
	return false
}

// Store performs one processor store (up to 8 bytes) at addr.
// Stores to Modified/Exclusive lines hit; anything else issues a
// coherent read-invalidate (see DESIGN.md bandwidth calibration).
func (c *Cache) Store(p *sim.Process, addr uint64) {
	if c.StoreHit(addr) {
		p.Sleep(params.HitCycles)
		return
	}
	blk, l := c.frame(addr)
	c.storeMiss.Inc()
	if !l.holds(blk) {
		c.evict(p, l)
	}
	c.fabric.Do(p, bus.Tx{Kind: bus.CRI, Addr: blk * params.BlockBytes, Initiator: c})
	l.retag(blk)
	l.state = Modified
}

// StoreHit is Store's hit check without its time: when addr's block is
// Modified or Exclusive it counts the store hit and leaves the line
// Modified, as Store does, and reports true; otherwise it changes
// nothing and reports false.
func (c *Cache) StoreHit(addr uint64) bool {
	blk, l := c.frame(addr)
	if l.holds(blk) && (l.state == Modified || l.state == Exclusive) {
		c.storeHit.Inc()
		l.state = Modified
		return true
	}
	return false
}

// evict writes back the current occupant of l if it is dirty.
func (c *Cache) evict(p *sim.Process, l *line) {
	if !l.state.Dirty() {
		l.state = Invalid
		return
	}
	c.writebacks.Inc()
	addr := uint64(l.tag) * params.BlockBytes
	l.state = Invalid
	c.fabric.Do(p, bus.Tx{Kind: bus.WB, Addr: addr, Initiator: c})
}

// FlushBlock writes addr's block back (if dirty) and invalidates it;
// used by tests and by software-managed flush sequences.
func (c *Cache) FlushBlock(p *sim.Process, addr uint64) {
	blk, l := c.frame(addr)
	if !l.holds(blk) || !l.state.Valid() {
		return
	}
	c.evict(p, l)
}

// SnoopTx implements bus.Agent: the MOESI snooping side.
func (c *Cache) SnoopTx(tx *bus.Tx, isHome bool) bus.Snoop {
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
func (m *Memory) SnoopTx(tx *bus.Tx, isHome bool) bus.Snoop {
	return bus.Snoop{}
}
