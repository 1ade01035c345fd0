package nic

import (
	"repro/internal/bus"
	"repro/internal/network"
	"repro/internal/params"
	"repro/internal/sim"
)

// cni4 exposes exactly one 256-byte network message in each direction
// through four cachable device registers (CDR blocks) homed on the
// device (§2.1, §3). Status and control registers stay uncached.
//
// Send: the processor polls the uncached send status until the CDR is
// free, writes the message into the CDR blocks with ordinary cached
// stores (each block's first store is a coherent read-invalidate the
// device observes), and posts an uncached "message ready" store. The
// device then pulls the blocks out of the processor cache with
// coherent reads and injects.
//
// Receive: the device loads the next message into the receive CDR and
// raises the uncached receive status. The processor polls the status,
// reads the message with cached loads (one miss per block, supplied
// cache-to-cache by the device), then executes the explicit
// three-cycle handshake: an uncached pop store, a MEMBAR to push it
// out, and a status re-read; the device invalidates the CDR blocks
// from the processor cache before showing the next message.
type cni4 struct {
	d    Deps
	name string
	ctr  niCounters

	// Send side: the send engine pulls block pulled of the staged
	// message next.
	sendBusy   bool // CDR occupied by a message being composed/pulled
	sendStaged *network.Msg
	sendFIFO   *outQ // pulled, awaiting injection
	sendCap    int
	sendWork   sim.Cond
	send       *bus.Call
	sendFn     func()
	pulled     int

	// Receive side: a pop recalls CDR block inv next (recvEngine).
	recvFIFO    sim.FIFO[*network.Msg] // arrived, behind the CDR
	recvCap     int
	recvCur     *network.Msg // message currently exposed in the CDR
	recvReady   bool         // status register value
	recvPopReq  bool         // processor posted the pop store
	recvWork    sim.Cond
	procCDRCopy [params.BlocksPerNetMsg]bool // proc caches recv CDR block?
	recv        *bus.Call
	recvFn      func()
	recalled    func()
	inv         int
}

func newCNI4(d Deps) *cni4 {
	n := &cni4{
		d:       d,
		name:    d.name(),
		ctr:     d.counters(),
		sendCap: params.CNI4DeviceFIFOMsgs,
		recvCap: params.CNI4DeviceFIFOMsgs,
	}
	d.Fabric.Attach(n, d.Loc)
	n.sendFn, n.recvFn = n.sendEngine, n.recvEngine
	n.recalled = func() { n.procCDRCopy[n.inv] = false; n.inv++; n.recvEngine() }
	n.send = bus.NewCall(d.Fabric, d.Eng.Drive(n.name+".send", n.sendFn))
	n.recv = bus.NewCall(d.Fabric, d.Eng.Drive(n.name+".recv", n.recvFn))
	n.sendFIFO = newOutQ(d, n.name+".inject")
	return n
}

func (n *cni4) Kind() params.NIKind { return params.CNI4 }

// AgentName implements bus.Agent.
func (n *cni4) AgentName() string { return n.name }

// AgentClass implements bus.Agent.
func (n *cni4) AgentClass() params.AgentClass { return params.ClassDevice }

// sendBlock returns the address of send-CDR block b.
func (n *cni4) sendBlock(b int) uint64 {
	return n.d.SendQBase + uint64(b)*params.BlockBytes
}

// recvBlock returns the address of receive-CDR block b.
func (n *cni4) recvBlock(b int) uint64 {
	return n.d.RecvQBase + uint64(b)*params.BlockBytes
}

// SnoopTx implements bus.Agent. The device is the home for both CDR
// regions: it tracks processor copies of the receive CDR (so the pop
// handshake knows what to invalidate) and observes the processor
// taking ownership of send CDR blocks.
func (n *cni4) SnoopTx(tx bus.Tx, isHome bool) bus.Snoop {
	for b := 0; b < params.BlocksPerNetMsg; b++ {
		if tx.Addr == n.recvBlock(b) {
			switch tx.Kind {
			case bus.CR:
				n.procCDRCopy[b] = true
			case bus.CRI, bus.CI:
				n.procCDRCopy[b] = false
			}
			// The device is the home: report a copy so the processor
			// installs Shared and its next write is bus-visible.
			return bus.Snoop{HasCopy: true}
		}
		if tx.Addr == n.sendBlock(b) {
			return bus.Snoop{HasCopy: true}
		}
	}
	return bus.Snoop{}
}

// RegRead implements bus.Device.
func (n *cni4) RegRead(reg uint64) uint64 {
	switch reg {
	case RegSendStatus:
		if !n.sendBusy && n.sendFIFO.msgs.Len() < n.sendCap {
			return 1
		}
		return 0
	case RegRecvStatus:
		if n.recvReady {
			return uint64(n.recvCur.Blocks)
		}
		return 0
	}
	return 0
}

// RegWrite implements bus.Device.
func (n *cni4) RegWrite(reg, val uint64) {
	switch reg {
	case RegSendCommit:
		if n.sendStaged == nil {
			panic("cni4: commit without staged message")
		}
		n.sendWork.Signal()
	case RegRecvPop:
		if !n.recvReady {
			panic("cni4: pop with no exposed message")
		}
		n.recvPopReq = true
		n.recvReady = false
		n.recvWork.Signal()
	}
}

// TrySend implements NI: the CNI4 send protocol.
func (n *cni4) TrySend(p *sim.Process, m *network.Msg) bool {
	if n.d.CPU.UncachedLoad(p, n, RegSendStatus, 1) == 0 {
		n.ctr.sendFull.Inc()
		return false
	}
	n.sendBusy = true
	// Write header + payload into the contiguous CDR blocks with
	// cached stores.
	n.d.CPU.StoreRange(p, n.sendBlock(0), m.Size+params.HeaderBytes)
	n.sendStaged = m
	n.d.CPU.UncachedStore(p, n, RegSendCommit, uint64(m.Blocks), 1)
	n.ctr.sendMsg.Inc()
	return true
}

// sendEngine pulls committed messages out of the processor cache, one
// block per step, a driven process.
func (n *cni4) sendEngine() {
	m := n.sendStaged
	switch {
	case m == nil:
		n.sendWork.Await(n.send.Process(), n.sendFn)
	case n.pulled < m.Blocks:
		n.pulled++
		n.send.Do(bus.Tx{Kind: bus.CR, Addr: n.sendBlock(n.pulled - 1), Initiator: n}, n.sendFn)
	default:
		n.pulled = 0
		n.sendStaged = nil
		n.sendFIFO.push(m)
		n.sendBusy = false
		n.sendWork.Await(n.send.Process(), n.sendFn)
	}
}

// TryRecv implements NI: poll the uncached status; on success read the
// CDR blocks and run the explicit clear handshake.
func (n *cni4) TryRecv(p *sim.Process) *network.Msg {
	blocks := n.d.CPU.UncachedLoad(p, n, RegRecvStatus, 1)
	if blocks == 0 {
		n.ctr.recvPollEmpty.Inc()
		return nil
	}
	m := n.recvCur
	n.d.CPU.LoadRange(p, n.recvBlock(0), m.Size+params.HeaderBytes)
	// Three-cycle handshake (§2.1): (1) explicit clear via uncached
	// store; (2) MEMBAR so the device sees it; (3) the device
	// invalidates the CDR and only then raises status for the next
	// message, which the next poll observes.
	n.d.CPU.UncachedStore(p, n, RegRecvPop, 1, 1)
	n.d.CPU.Membar(p)
	n.ctr.recvMsg.Inc()
	return m
}

// recvEngine loads arrived messages into the CDR and performs the
// device half of the clear handshake, a driven process: a pop
// invalidates the processor's cached copies of the CDR, from block inv
// on, one bus transaction per step.
func (n *cni4) recvEngine() {
	if n.recvPopReq {
		for ; n.inv < params.BlocksPerNetMsg; n.inv++ {
			if n.procCDRCopy[n.inv] {
				n.recv.Do(bus.Tx{Kind: bus.CI, Addr: n.recvBlock(n.inv), Initiator: n}, n.recalled)
				return
			}
		}
		n.recvPopReq, n.inv = false, 0
		n.recvCur = nil
		n.d.Net.Unblock(n.d.NodeID)
	}
	if n.recvCur == nil && n.recvFIFO.Len() > 0 {
		n.recvCur = n.recvFIFO.Pop()
		// Loading the CDR is device-internal (the device is home).
		n.recvReady = true
	}
	n.recvWork.Await(n.recv.Process(), n.recvFn)
}

// NetDeliver implements network.Port.
func (n *cni4) NetDeliver(m *network.Msg) bool {
	if n.recvFIFO.Len() >= n.recvCap {
		return false
	}
	n.recvFIFO.Push(m)
	n.recvWork.Signal()
	return true
}
