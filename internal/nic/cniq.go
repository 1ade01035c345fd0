package nic

import (
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/network"
	"repro/internal/params"
	"repro/internal/sim"
)

// cniq implements the cachable-queue network interfaces: CNI16Q and
// CNI512Q (queues homed on the device) and CNI16Qm (queue homed in
// main memory with a 16-block device cache; receive-side overflow
// writes back to memory, §3).
//
// Queue layout per direction (see nic.go): one head-pointer block, one
// tail-pointer block, then fixed 4-block entries, one network message
// each. The timing-relevant state is which agent caches which block;
// the functional queue content is tracked directly.
//
// The three CQ optimisations (§2.2) appear as concrete traffic:
//
//   - valid bits: the processor polls the head entry's first block —
//     a cache hit while the queue is quiet — never the tail pointer;
//   - sense reverse: the receiver never writes the entry to clear it,
//     so consuming a message generates no ownership transfer;
//   - lazy pointers: the producer side (processor for the send queue,
//     device for the receive queue) re-reads the consumer's head
//     pointer only when its shadow copy says the queue is full.
//
// All three can be disabled through params.Config for ablations.
type cniq struct {
	d        Deps
	kind     params.NIKind
	name     string
	ctr      niCounters
	memHomed bool
	entries  int // entries per direction

	// ---- send queue: processor produces, device consumes ----
	sendTailPos   uint64                 // software tail (monotonic)
	sendShadow    uint64                 // software shadow of the device head
	sendHeadPos   uint64                 // device head (monotonic)
	sendStageQ    sim.FIFO[*network.Msg] // committed by software, awaiting RegWrite
	sendCommitted sim.FIFO[*network.Msg] // message-ready received, awaiting pull
	sendHints     sim.FIFO[uint64]       // virtual-polling pull hints (block addrs)
	sendReady     *network.Msg           // pulled, awaiting inject FIFO space
	injectFIFO    *outQ
	sendWork      sim.Cond
	// The send engine is a driven process pulling block pullB of the
	// head committed message, or hint block pullAt, next.
	send                                    *bus.Call
	sendFn, hintedFn, pulledFn, publishedFn func()
	pullAt                                  uint64
	pullB                                   int

	// ---- receive queue: device produces, processor consumes ----
	recvTailPos  uint64                 // device tail (monotonic)
	recvShadow   uint64                 // device shadow of the processor head
	recvProcHead uint64                 // processor head (monotonic)
	recvStage    sim.FIFO[*network.Msg] // accepted from the wire, awaiting entry write
	recvEntries  sim.FIFO[*network.Msg] // visible to the processor
	recvWork     sim.Cond
	recvHeadMove sim.Cond // snooped CRI on the head-pointer block
	// The receive engine is a driven process making block write
	// writeB, of block wAddr, of the staged message next.
	recv                                                    *bus.Call
	recvFn, refreshedFn, evictedFn, invalidatedFn, pushedFn func()
	writeB                                                  int
	wAddr                                                   uint64

	// blocks holds the device's per-block flags (pulled, procCopy,
	// live) over both queue regions.
	blocks blockFlags

	// dc is CNI16Qm's receive-side device cache (nil otherwise).
	dc *devCache
}

// Per-block flags of a cachable-queue NI, one byte per block of its two
// queue regions.
const (
	// pulled marks a send-queue block already at the device (hint pull
	// or writeback), so the send engine need not read it.
	pulled uint8 = 1 << iota
	// procCopy marks a block the processor cache holds, so the device
	// knows when publishing requires invalidation.
	procCopy
	// live marks a receive-queue block holding a message the processor
	// has not yet read. The device observes consumption for free by
	// snooping the processor's coherent reads of its queue blocks, so
	// evicting a dead (already-consumed) block needs no writeback —
	// only live blocks "overflow to main memory" (§3, §5.1.2).
	live
)

// blockFlags is one byte of flags per block of the send and receive
// queue regions, indexed from their bases: the send region's blocks
// first, then the receive region's.
type blockFlags struct {
	sendBase, recvBase uint64
	n                  uint64 // blocks per region
	b                  []uint8
}

func newBlockFlags(sendBase, recvBase uint64, regionBytes uint64) blockFlags {
	n := regionBytes / params.BlockBytes
	return blockFlags{sendBase: sendBase, recvBase: recvBase, n: n, b: make([]uint8, 2*n)}
}

// at returns the flags of the block at addr, which must lie in one of
// the two regions.
func (f *blockFlags) at(addr uint64) *uint8 {
	if i := (addr - f.sendBase) / params.BlockBytes; addr >= f.sendBase && i < f.n {
		return &f.b[i]
	}
	return &f.b[f.n+(addr-f.recvBase)/params.BlockBytes]
}

func (f *blockFlags) has(addr uint64, flag uint8) bool { return *f.at(addr)&flag != 0 }

func (f *blockFlags) set(addr uint64, flag uint8) { *f.at(addr) |= flag }

func (f *blockFlags) clear(addr uint64, flag uint8) { *f.at(addr) &^= flag }

const (
	injectFIFOCap = 2 // pulled messages awaiting injection
	recvStageCap  = 2 // hardware landing buffers before queue entries
)

func newCNIQ(d Deps, memHomed bool) *cniq {
	qblocks := d.Cfg.QueueBlocks()
	total := d.Cfg.TotalQueueBlocks()
	n := &cniq{
		d:        d,
		kind:     d.Cfg.NI,
		name:     d.name(),
		ctr:      d.counters(),
		memHomed: memHomed,
		entries:  total / params.BlocksPerNetMsg,
		writeB:   1,
	}
	n.blocks = newBlockFlags(d.SendQBase, d.RecvQBase, QueueRegionBytes(n.entries*params.BlocksPerNetMsg))
	n.ctr.sendHintPull = d.Stats.Counter(n.name + ".send.hintpull")
	n.ctr.sendPull = d.Stats.Counter(n.name + ".send.pull")
	n.ctr.recvHeadRefresh = d.Stats.Counter(n.name + ".recv.headrefresh")
	n.ctr.recvQFull = d.Stats.Counter(n.name + ".recv.qfull")
	n.ctr.recvOverflowWB = d.Stats.Counter(n.name + ".recv.overflowWB")
	n.ctr.recvUpdate = d.Stats.Counter(n.name + ".recv.update")
	if memHomed {
		n.dc = newDevCache(qblocks) // 16-block receive cache
		n.dc.pin(n.sendHeadAddr())  // device-owned pointer blocks
		n.dc.pin(n.recvTailAddr())
	}
	d.Fabric.Attach(n, d.Loc)
	// A bus transaction ends an engine's step; its completion books it
	// and steps the engine again.
	n.sendFn, n.publishedFn = n.sendEngine, n.published
	n.hintedFn = func() { n.blocks.set(n.pullAt, pulled); n.ctr.sendHintPull.Inc(); n.sendEngine() }
	n.pulledFn = func() { n.ctr.sendPull.Inc(); n.pullB++; n.sendEngine() }
	n.recvFn, n.refreshedFn, n.pushedFn = n.recvEngine, n.refreshed, n.pushed
	n.evictedFn = func() { n.ctr.recvOverflowWB.Inc(); n.recvEngine() }
	n.invalidatedFn = func() { n.blocks.clear(n.wAddr, procCopy); n.recvEngine() }
	n.send = bus.NewCall(d.Fabric, d.Eng.Drive(n.name+".send", n.sendFn))
	n.injectFIFO = newOutQ(d, n.name+".inject")
	n.recv = bus.NewCall(d.Fabric, d.Eng.Drive(n.name+".recv", n.recvFn))
	return n
}

func (n *cniq) Kind() params.NIKind { return n.kind }

// AgentName implements bus.Agent.
func (n *cniq) AgentName() string { return n.name }

// AgentClass implements bus.Agent.
func (n *cniq) AgentClass() params.AgentClass { return params.ClassDevice }

// Address helpers.
func (n *cniq) sendEntryAddr(pos uint64, b int) uint64 {
	return entryAddr(n.d.SendQBase, int(pos%uint64(n.entries)), b)
}
func (n *cniq) recvEntryAddr(pos uint64, b int) uint64 {
	return entryAddr(n.d.RecvQBase, int(pos%uint64(n.entries)), b)
}
func (n *cniq) sendHeadAddr() uint64 { return headAddr(n.d.SendQBase) }
func (n *cniq) recvHeadAddr() uint64 { return headAddr(n.d.RecvQBase) }
func (n *cniq) recvTailAddr() uint64 {
	return n.d.RecvQBase + tailPtrBlock*params.BlockBytes
}

func (n *cniq) inSendEntries(addr uint64) bool {
	lo := entryAddr(n.d.SendQBase, 0, 0)
	hi := entryAddr(n.d.SendQBase, n.entries, 0)
	return addr >= lo && addr < hi
}

func (n *cniq) inRegion(addr uint64) bool {
	size := QueueRegionBytes(n.entries * params.BlocksPerNetMsg)
	return (addr >= n.d.SendQBase && addr < n.d.SendQBase+size) ||
		(addr >= n.d.RecvQBase && addr < n.d.RecvQBase+size)
}

// SnoopTx implements bus.Agent: coherence is how the device watches
// the processor (virtual polling) and vice versa.
func (n *cniq) SnoopTx(tx bus.Tx, isHome bool) bus.Snoop {
	if !n.inRegion(tx.Addr) {
		return bus.Snoop{}
	}
	var sn bus.Snoop
	if n.memHomed {
		sn = n.snoopDevCache(tx)
	} else {
		// Device-homed: the home always "has" the block, which forces
		// the processor to install Shared so its writes stay visible.
		sn = bus.Snoop{HasCopy: true}
	}
	switch tx.Kind {
	case bus.CR:
		n.blocks.set(tx.Addr, procCopy)
		if tx.Initiator != bus.Agent(n) {
			// The processor fetched the block: the message data has
			// left the device; the copy here is dead weight.
			n.blocks.clear(tx.Addr, live)
		}
	case bus.CRI:
		// The processor took exclusive ownership: it holds the block.
		n.blocks.set(tx.Addr, procCopy)
		if n.inSendEntries(tx.Addr) {
			n.blocks.clear(tx.Addr, pulled)
			n.virtualPollHint(tx.Addr)
		}
		if tx.Addr == n.recvHeadAddr() {
			// The processor is advancing the receive head: wake the
			// receive engine if it is waiting for space.
			n.recvHeadMove.Signal()
		}
	case bus.CI:
		n.blocks.clear(tx.Addr, procCopy)
	case bus.WB:
		if !n.memHomed && isHome && n.inSendEntries(tx.Addr) {
			// The processor evicted a dirty send-queue block to its
			// home (us): the data is here, no pull needed.
			n.blocks.set(tx.Addr, pulled)
		}
	}
	return sn
}

// virtualPollHint implements §3's virtual-polling variant: queues fill
// in FIFO order, so an invalidation for block k+1 of a message implies
// the processor finished writing block k; the device pulls it early.
func (n *cniq) virtualPollHint(addr uint64) {
	off := addr - entryAddr(n.d.SendQBase, 0, 0)
	blockInEntry := (off / params.BlockBytes) % params.BlocksPerNetMsg
	if blockInEntry == 0 {
		return
	}
	prev := addr - params.BlockBytes
	if !n.blocks.has(prev, pulled) {
		n.sendHints.Push(prev)
		n.sendWork.Signal()
	}
}

// RegRead implements bus.Device. The CQ designs expose no polled
// status registers; reads exist for diagnostics.
func (n *cniq) RegRead(reg uint64) uint64 {
	switch reg {
	case RegSendStatus:
		return n.sendHeadPos
	case RegRecvStatus:
		return n.recvTailPos
	}
	return 0
}

// RegWrite implements bus.Device: the only control write is the
// message-ready signal (§3).
func (n *cniq) RegWrite(reg, val uint64) {
	if reg != RegSendCommit {
		return
	}
	if n.sendStageQ.Len() == 0 {
		panic("cniq: message-ready with no staged message")
	}
	n.sendCommitted.Push(n.sendStageQ.Pop())
	n.sendWork.Signal()
}

// TrySend implements NI: the CQ send protocol (§3): check for space
// using the lazy shadow head, write the message into the entry with
// cached stores, bump the private tail, and post the message-ready
// uncached store.
func (n *cniq) TrySend(p *sim.Process, m *network.Msg) bool {
	cpu := n.d.CPU
	// Software full check against the shadow head (a private cached
	// variable: a hit).
	cpu.Load(p, n.d.ShadowBase)
	full := n.sendTailPos-n.sendShadow >= uint64(n.entries)
	if full || n.d.Cfg.NoLazyPointers {
		// Re-read the real head pointer (a miss whenever the device
		// has advanced it since we last looked).
		cpu.Load(p, n.sendHeadAddr())
		n.sendShadow = n.sendHeadPos
		if n.sendTailPos-n.sendShadow >= uint64(n.entries) {
			n.ctr.sendFull.Inc()
			return false
		}
	}
	// Write the message (header + payload + valid word in block 0)
	// into the entry's contiguous blocks.
	cpu.StoreRange(p, n.sendEntryAddr(n.sendTailPos, 0), m.Size+params.HeaderBytes)
	// Advance the private tail (hit) and signal message-ready.
	cpu.Store(p, n.d.ShadowBase+8)
	n.sendTailPos++
	n.sendStageQ.Push(m)
	cpu.UncachedStore(p, n, RegSendCommit, 1)
	n.ctr.sendMsg.Inc()
	return true
}

// sendEngine is the device's pull side, a driven process: it services
// virtual-polling hints eagerly and drains committed messages into the
// inject FIFO, advancing the send head pointer.
func (n *cniq) sendEngine() {
	for {
		switch {
		case n.sendReady != nil:
			if n.injectFIFO.msgs.Len() >= injectFIFOCap {
				n.injectFIFO.space.Await(n.send.Process(), n.sendFn)
				return
			}
			n.injectFIFO.push(n.sendReady)
			n.sendReady = nil
			n.sendHeadPos++
			// Publish the head pointer: invalidate the processor's copy
			// if it holds one.
			if addr := n.sendHeadAddr(); n.blocks.has(addr, procCopy) {
				n.send.Do(bus.Tx{Kind: bus.CI, Addr: addr, Initiator: n}, n.publishedFn)
			} else {
				n.published()
			}
			return
		case n.pullB == 0 && n.sendHints.Len() > 0:
			if n.pullAt = n.sendHints.Pop(); !n.blocks.has(n.pullAt, pulled) {
				n.send.Do(bus.Tx{Kind: bus.CR, Addr: n.pullAt, Initiator: n}, n.hintedFn)
				return
			}
		case n.sendCommitted.Len() == 0:
			n.sendWork.Await(n.send.Process(), n.sendFn)
			return
		case n.pullB < n.sendCommitted.Peek().Blocks:
			if addr := n.sendEntryAddr(n.sendHeadPos, n.pullB); !n.blocks.has(addr, pulled) {
				n.send.Do(bus.Tx{Kind: bus.CR, Addr: addr, Initiator: n}, n.pulledFn)
				return
			}
			n.pullB++
		default:
			// Entry consumed: forget pull state for its blocks.
			for b := 0; b < params.BlocksPerNetMsg; b++ {
				n.blocks.clear(n.sendEntryAddr(n.sendHeadPos, b), pulled)
			}
			n.pullB = 0
			n.sendReady = n.sendCommitted.Pop()
		}
	}
}

// published re-owns the memory-homed design's pinned head-pointer
// line once the processor's copy is gone.
func (n *cniq) published() {
	n.blocks.clear(n.sendHeadAddr(), procCopy)
	if n.memHomed {
		n.dc.setState(n.sendHeadAddr(), cache.Modified)
	}
	n.sendEngine()
}

// NetDeliver implements network.Port: accept into the landing buffers.
func (n *cniq) NetDeliver(m *network.Msg) bool {
	if n.recvStage.Len() >= recvStageCap {
		return false
	}
	n.recvStage.Push(m)
	n.recvWork.Signal()
	return true
}

// recvEngine writes arrived messages into receive-queue entries, a
// driven process: lazy full check against the processor head, then
// block writes writeB = 1, 2, ... (invalidation traffic + CNI16Qm
// device-cache handling): payload blocks, the tail pointer when the
// receiver polls it (NoValidBits), the valid word (block 0) last.
func (n *cniq) recvEngine() {
	for n.recvStage.Len() > 0 {
		if n.recvTailPos-n.recvShadow >= uint64(n.entries) {
			// Shadow says full: refresh by reading the processor's head
			// pointer block (lazy pointers, device side).
			n.recv.Do(bus.Tx{Kind: bus.CR, Addr: n.recvHeadAddr(), Initiator: n}, n.refreshedFn)
			return
		}
		b, last := n.writeB, n.recvStage.Peek().Blocks // last: the valid word's write
		if n.d.Cfg.NoValidBits {
			last++
		}
		if b > last {
			n.writeB = 1
			n.recvEntries.Push(n.recvStage.Pop())
			n.recvTailPos++
			n.d.Net.Unblock(n.d.NodeID)
			continue
		}
		n.wAddr = n.recvEntryAddr(n.recvTailPos, b%last) // block 0 at b == last
		if n.d.Cfg.NoValidBits && b == last-1 {
			n.wAddr = n.recvTailAddr()
		}
		// Memory-homed: the device cache takes ownership. Evict the
		// victim first — a live victim (unread message) is the §5.1.2
		// overflow writeback; a dead one is dropped silently.
		if n.memHomed {
			if victim, dirty := n.dc.ensure(n.wAddr); dirty && n.blocks.has(victim, live) {
				n.recv.Do(bus.Tx{Kind: bus.WB, Addr: victim, Initiator: n}, n.evictedFn)
				return
			}
		}
		// The write itself is internal or a silent upgrade; a stale
		// processor copy is invalidated, unless the update protocol
		// refreshes it (so the processor's next poll hits).
		if n.blocks.has(n.wAddr, procCopy) && !n.d.Cfg.UpdateProtocol {
			n.recv.Do(bus.Tx{Kind: bus.CI, Addr: n.wAddr, Initiator: n}, n.invalidatedFn)
			return
		}
		if n.memHomed {
			n.blocks.set(n.wAddr, live)
			n.dc.setState(n.wAddr, cache.Modified)
		}
		n.writeB++
		if n.d.Cfg.UpdateProtocol && n.wAddr != n.recvTailAddr() {
			n.recv.Do(bus.Tx{Kind: bus.UP, Addr: n.wAddr, Initiator: n}, n.pushedFn)
			return
		}
	}
	n.recvWork.Await(n.recv.Process(), n.recvFn)
}

func (n *cniq) refreshed() {
	n.ctr.recvHeadRefresh.Inc()
	n.recvShadow = n.recvProcHead
	if n.recvTailPos-n.recvShadow >= uint64(n.entries) {
		// Truly full: sleep until the snooped coherence traffic says
		// the processor advanced its head (the refresh above
		// downgraded the processor's copy, so the next head increment
		// is a bus-visible invalidation).
		n.ctr.recvQFull.Inc()
		n.recvHeadMove.Await(n.recv.Process(), n.recvFn)
		return
	}
	n.recvEngine()
}

func (n *cniq) pushed() {
	n.blocks.set(n.wAddr, procCopy)
	if n.memHomed && n.dc.stateOf(n.wAddr) == cache.Modified {
		n.dc.setState(n.wAddr, cache.Owned) // the processor now shares it
	}
	n.ctr.recvUpdate.Inc()
	n.recvEngine()
}

// TryRecv implements NI: the CQ receive protocol (§2.2, §3): poll the
// head entry's valid word (a hit while nothing changed), read the
// message blocks, advance the head pointer.
func (n *cniq) TryRecv(p *sim.Process) *network.Msg {
	n.d.CPU.Load(p, n.pollAddr())
	return n.RecvAfterPoll(p)
}

// pollAddr is the block the receive poll loads: the head entry's valid
// word, or the tail pointer when the valid-bit optimisation is off.
func (n *cniq) pollAddr() uint64 {
	if n.d.Cfg.NoValidBits {
		return n.recvTailAddr()
	}
	return n.recvEntryAddr(n.recvProcHead, 0)
}

// PollHit implements CachedPoll.
func (n *cniq) PollHit() bool { return n.d.CPU.Cache().Hit(n.pollAddr(), false) }

// RecvEmpty implements CachedPoll.
func (n *cniq) RecvEmpty() bool { return n.recvEntries.Len() == 0 }

// CountEmptyPoll implements CachedPoll.
func (n *cniq) CountEmptyPoll() { n.ctr.recvPollEmpty.Inc() }

// RecvAfterPoll implements CachedPoll: TryRecv's receive path once the
// poll load has completed.
func (n *cniq) RecvAfterPoll(p *sim.Process) *network.Msg {
	if n.recvEntries.Len() == 0 {
		n.ctr.recvPollEmpty.Inc()
		return nil
	}
	cpu := n.d.CPU
	m := n.recvEntries.Peek()
	// Read the rest of the message from the entry's contiguous blocks:
	// block 0 after the valid word the poll loaded (all of it when the
	// poll read the tail pointer instead), then the other blocks (one
	// miss each, supplied by the device or memory).
	base, bytes := n.recvEntryAddr(n.recvProcHead, 0), m.Size+params.HeaderBytes
	if !n.d.Cfg.NoValidBits {
		base, bytes = base+8, bytes-8
	}
	cpu.LoadRange(p, base, bytes)
	if n.d.Cfg.NoSenseReverse {
		// Ablation: explicitly clear the valid word, which transfers
		// ownership of the block to the processor (the cost sense
		// reverse eliminates).
		cpu.Store(p, n.recvEntryAddr(n.recvProcHead, 0))
	}
	n.recvEntries.Pop()
	n.recvProcHead++
	// Advance the head pointer (a hit while the device isn't looking;
	// one CRI per device refresh otherwise).
	cpu.Store(p, n.recvHeadAddr())
	n.ctr.recvMsg.Inc()
	return m
}
