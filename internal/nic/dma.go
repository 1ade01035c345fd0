package nic

import (
	"repro/internal/bus"
	"repro/internal/network"
	"repro/internal/params"
	"repro/internal/sim"
)

// dmaNI is the reproduction's DMA comparator (params.DMA): a
// user-level-DMA messaging interface in the spirit of SHRIMP's UDMA.
// The paper names the missing DMA comparison as its open weakness
// (§1), and predicts the trade-off this model exhibits:
//
//   - Send: the processor posts a four-word descriptor (uncached
//     stores) and is done — constant CPU cost regardless of size. The
//     device then pulls the message out of the source node's memory
//     system a block at a time.
//
//   - Receive: the device deposits arriving messages directly into
//     main memory (invalidating stale cached copies) and notifies the
//     process with an interrupt (params.InterruptCycles). The
//     processor's subsequent reads miss to memory — DMA delivers to
//     DRAM, not into the cache, which is exactly the gap CNIs close.
type dmaNI struct {
	d    Deps
	name string
	ctr  niCounters

	sendQ      sim.FIFO[*network.Msg] // posted descriptors awaiting pull+inject
	sendStageQ sim.FIFO[*network.Msg] // descriptor stores still in flight
	recvFIFO   sim.FIFO[*network.Msg] // arrived, awaiting deposit to memory
	deposited  sim.FIFO[*network.Msg] // in memory, awaiting processor pickup
	pending    int                    // completions not yet taken (interrupt coalescing)

	// The send and receive engines are driven processes: send pulls
	// block pulled of the head descriptor next, and recv issues bus
	// transaction deposit of the head arrival's CI/WB pairs next.
	sendWork, recvWork sim.Cond
	send, recv         *bus.Call
	inj                *network.Injector
	sendFn, recvFn     func()
	pulled, deposit    int

	// Ring cursors: successive messages occupy successive buffer
	// slots, as real descriptor rings do (reusing one address would
	// let reads spuriously hit leftovers of the previous message).
	sendSeq uint64
	recvSeq uint64
	readSeq uint64
}

// dmaRingSlots is the buffer ring length in network-message slots.
const dmaRingSlots = 32

// slotAddr returns the DRAM address of block b of ring slot seq.
func slotAddr(seq uint64, b int) uint64 {
	return machineUserBuf + ((seq%dmaRingSlots)*params.BlocksPerNetMsg+uint64(b))*params.BlockBytes
}

func newDMA(d Deps) *dmaNI {
	n := &dmaNI{d: d, name: d.name(), ctr: d.counters()}
	d.Fabric.Attach(n, d.Loc)
	n.sendFn, n.recvFn = n.sendEngine, n.recvEngine
	sp := d.Eng.Drive(n.name+".send", n.sendFn)
	n.send = bus.NewCall(d.Fabric, sp)
	n.inj = d.Net.Injector(sp, func() { n.sendQ.Pop(); n.sendEngine() })
	n.recv = bus.NewCall(d.Fabric, d.Eng.Drive(n.name+".recv", n.recvFn))
	return n
}

func (n *dmaNI) Kind() params.NIKind { return params.DMA }

// AgentName implements bus.Agent.
func (n *dmaNI) AgentName() string { return n.name }

// AgentClass implements bus.Agent.
func (n *dmaNI) AgentClass() params.AgentClass { return params.ClassDevice }

// SnoopTx implements bus.Agent: the DMA engine holds no cachable
// state; its transfers are explicit bus transactions.
func (n *dmaNI) SnoopTx(tx bus.Tx, isHome bool) bus.Snoop { return bus.Snoop{} }

// RegRead implements bus.Device.
func (n *dmaNI) RegRead(reg uint64) uint64 {
	switch reg {
	case RegSendStatus:
		if n.sendQ.Len()+n.sendStageQ.Len() < params.DMADescriptors {
			return 1
		}
		return 0
	case RegRecvStatus:
		return uint64(n.pending)
	}
	return 0
}

// RegWrite implements bus.Device.
func (n *dmaNI) RegWrite(reg, val uint64) {
	switch reg {
	case RegSendCommit:
		if n.sendStageQ.Len() == 0 {
			panic("dma: descriptor commit without staged message")
		}
		n.sendQ.Push(n.sendStageQ.Pop())
		n.sendWork.Signal()
	case RegRecvPop:
		if n.pending == 0 {
			panic("dma: pop with no completion")
		}
		n.pending--
	}
}

// TrySend posts a DMA descriptor: one status check plus four uncached
// stores (source, length, destination, go) — once per *user* message.
// The device fragments into network messages itself, so fragments
// after the first cost the processor nothing: that constant
// initiation cost is DMA's whole advantage.
func (n *dmaNI) TrySend(p *sim.Process, m *network.Msg) bool {
	if m.Frag > 0 {
		// The descriptor already covers this fragment; the device just
		// needs ring space.
		if n.sendQ.Len()+n.sendStageQ.Len() >= params.DMADescriptors {
			return false
		}
		n.sendQ.Push(m)
		n.sendWork.Signal()
		return true
	}
	if n.d.CPU.UncachedLoad(p, n, RegSendStatus, 1) == 0 {
		n.ctr.sendFull.Inc()
		return false
	}
	// Source address, length and destination, then go.
	n.d.CPU.UncachedStore(p, n, RegSendData, 0, 3)
	n.sendStageQ.Push(m)
	n.d.CPU.UncachedStore(p, n, RegSendCommit, 1, 1)
	n.ctr.sendMsg.Inc()
	return true
}

// sendEngine pulls posted messages from the node's memory system
// (cache-to-cache when the data is still cached, else from memory),
// one block per step, and injects them.
func (n *dmaNI) sendEngine() {
	for n.sendQ.Len() > 0 {
		m := n.sendQ.Peek()
		if n.pulled < m.Blocks {
			n.pulled++
			n.send.Do(bus.Tx{Kind: bus.CR, Addr: slotAddr(n.sendSeq, n.pulled-1), Initiator: n}, n.sendFn)
			return
		}
		n.pulled = 0
		n.sendSeq++
		if !n.inj.Inject(m) {
			return // the Injector pops m once it is launched
		}
		n.sendQ.Pop()
	}
	n.sendWork.Await(n.send.Process(), n.sendFn)
}

// machineUserBuf is the DRAM address the DMA engine reads/writes; the
// exact location only matters for cache-state effects (the messaging
// layer's buffer region).
const machineUserBuf = 0x0601_0000

// NetDeliver implements network.Port.
func (n *dmaNI) NetDeliver(m *network.Msg) bool {
	if n.recvFIFO.Len() >= params.DMADescriptors {
		return false
	}
	n.recvFIFO.Push(m)
	n.recvWork.Signal()
	return true
}

// recvEngine deposits arrived messages into main memory, one bus
// transaction per step, and raises a completion (the interrupt is
// charged to the processor at pickup).
func (n *dmaNI) recvEngine() {
	for n.recvFIFO.Len() > 0 {
		m := n.recvFIFO.Peek()
		if k := n.deposit; k < 2*m.Blocks {
			// Invalidate any stale processor copy, then write the
			// block to memory.
			n.deposit++
			n.recv.Do(bus.Tx{Kind: [2]bus.Kind{bus.CI, bus.WB}[k%2], Addr: slotAddr(n.recvSeq, k/2), Initiator: n}, n.recvFn)
			return
		}
		n.deposit = 0
		n.recvSeq++
		n.deposited.Push(n.recvFIFO.Pop())
		n.pending++
		n.d.Net.Unblock(n.d.NodeID)
	}
	n.recvWork.Await(n.recv.Process(), n.recvFn)
}

// TryRecv picks up one completed message: status poll, interrupt
// dispatch cost, then reads of the DMA'd data that miss to memory.
func (n *dmaNI) TryRecv(p *sim.Process) *network.Msg {
	if n.d.CPU.UncachedLoad(p, n, RegRecvStatus, 1) == 0 {
		n.ctr.recvPollEmpty.Inc()
		return nil
	}
	m := n.deposited.Pop()
	if m.Frag == 0 {
		// Interrupt-style notification, once per user message
		// (vector + kernel entry/exit + dispatch).
		n.d.CPU.Compute(p, params.InterruptCycles)
	}
	// Read the message out of its ring slot's contiguous blocks in main
	// memory: cold misses, since DMA deposited to DRAM (invalidating any
	// cached copies).
	n.d.CPU.LoadRange(p, slotAddr(n.readSeq, 0), m.Size+params.HeaderBytes)
	n.readSeq++
	n.d.CPU.UncachedStore(p, n, RegRecvPop, 1, 1)
	n.ctr.recvMsg.Inc()
	return m
}
