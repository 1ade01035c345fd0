package nic

import (
	"repro/internal/bus"
	"repro/internal/cache"
)

// devCache is CNI16Qm's small on-device cache for its memory-homed
// queue blocks (§3: "caches up to 16 cache blocks on the network
// interface device, and overflows to main memory as necessary").
// It is fully associative with FIFO replacement — deterministic and
// close enough to the paper's unspecified policy; pinned lines (the
// device-owned pointer blocks) never evict.
type devCache struct {
	capacity int
	lines    map[uint64]cache.State
	order    []uint64 // unpinned lines in insertion order
	pinned   map[uint64]bool
}

func newDevCache(capBlocks int) *devCache {
	return &devCache{
		capacity: capBlocks,
		lines:    make(map[uint64]cache.State),
		pinned:   make(map[uint64]bool),
	}
}

// pin installs addr as a permanently resident Modified line (used for
// the device-owned pointer blocks).
func (c *devCache) pin(addr uint64) {
	c.lines[addr] = cache.Modified
	c.pinned[addr] = true
}

// stateOf returns the line state (Invalid when absent).
func (c *devCache) stateOf(addr uint64) cache.State {
	return c.lines[addr]
}

// setState updates an existing line's state.
func (c *devCache) setState(addr uint64, st cache.State) {
	c.lines[addr] = st
}

// invalidate drops the line (pinned lines go Invalid but stay pinned;
// the device re-owns them on its next publish).
func (c *devCache) invalidate(addr uint64) {
	if c.pinned[addr] {
		c.lines[addr] = cache.Invalid
		return
	}
	delete(c.lines, addr)
	for i, a := range c.order {
		if a == addr {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
}

// ensure allocates a frame for addr, evicting the oldest unpinned
// line if the cache is at capacity. It reports the victim and whether
// the victim was dirty (needs a writeback before reuse).
func (c *devCache) ensure(addr uint64) (victim uint64, dirtyEvict bool) {
	if _, ok := c.lines[addr]; ok {
		return 0, false
	}
	if c.pinned[addr] {
		c.lines[addr] = cache.Invalid
		return 0, false
	}
	if len(c.order) >= c.capacity {
		victim = c.order[0]
		c.order = c.order[1:]
		st := c.lines[victim]
		delete(c.lines, victim)
		dirtyEvict = st.Dirty()
	}
	c.lines[addr] = cache.Invalid
	c.order = append(c.order, addr)
	return victim, dirtyEvict
}

// snoopDevCache is the MOESI snooping side of the device cache.
func (n *cniq) snoopDevCache(tx bus.Tx) bus.Snoop {
	st := n.dc.stateOf(tx.Addr)
	if !st.Valid() {
		return bus.Snoop{}
	}
	switch tx.Kind {
	case bus.CR:
		sn := bus.Snoop{HasCopy: true, WillSupply: st.CanSupply()}
		switch st {
		case cache.Modified:
			n.dc.setState(tx.Addr, cache.Owned)
		case cache.Exclusive:
			n.dc.setState(tx.Addr, cache.Shared)
		}
		return sn
	case bus.CRI:
		sn := bus.Snoop{HasCopy: true, WillSupply: st.CanSupply()}
		n.dc.invalidate(tx.Addr)
		return sn
	case bus.CI:
		n.dc.invalidate(tx.Addr)
		return bus.Snoop{HasCopy: true}
	}
	return bus.Snoop{}
}
