// Package nic implements the paper's five network interface devices
// (Table 1):
//
//	NI2w     — CM-5-like baseline; two words exposed via uncachable
//	           device registers and hardware FIFOs.
//	CNI4     — one 256-byte message exposed through four cachable
//	           device registers (CDRs); reuse via the explicit
//	           three-cycle handshake (§2.1).
//	CNI16Q   — 16-block cachable queue homed on the device (§2.2, §3).
//	CNI512Q  — 512-block cachable queue homed on the device.
//	CNI16Qm  — 512-block cachable queue homed in main memory with a
//	           16-block device cache; overflow writes back to memory.
//
// Each NI is simultaneously three things: a bus agent (it snoops the
// coherence protocol — that is the paper's whole point), a network
// port, and a processor-side software protocol (the exact sequence of
// cached/uncached operations a send or receive performs, which this
// package executes against the simulated CPU so that every bus
// transaction the paper counts actually happens on the simulated bus).
//
// Logical message payloads ride alongside the timing model: the
// simulated memory system carries coherence state, not bytes, so the
// *network.Msg object is "staged" at the device when the software
// commit operation executes. This modelling shortcut is documented in
// DESIGN.md and does not change any bus traffic.
package nic

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/network"
	"repro/internal/params"
	"repro/internal/proc"
	"repro/internal/sim"
)

// Device register offsets (device-local, uncachable).
const (
	RegSendStatus uint64 = 0x00 // nonzero: NI can accept a message
	RegSendData   uint64 = 0x08 // NI2w: message words are stored here
	RegSendCommit uint64 = 0x10 // commit / "message ready" signal
	RegRecvStatus uint64 = 0x18 // nonzero: a message is available
	RegRecvData   uint64 = 0x20 // NI2w: message words are read here
	RegRecvPop    uint64 = 0x28 // CNI4: explicit pop / CDR clear
)

// NI is one node's network interface: device side plus the
// processor-side send/receive software protocol.
type NI interface {
	bus.Device
	network.Port

	// Kind identifies the design (Table 1).
	Kind() params.NIKind

	// TrySend attempts to hand one network message to the NI, executing
	// the design's processor-side send protocol on the calling process.
	// It returns false (after the cost of the failed admission check)
	// when the NI cannot currently accept; the messaging layer then
	// runs software flow control (§4.1) and retries.
	TrySend(p *sim.Process, m *network.Msg) bool

	// TryRecv attempts to extract one message, executing the design's
	// processor-side receive protocol (including the poll). It returns
	// nil (after the poll cost) when no message is available.
	TryRecv(p *sim.Process) *network.Msg
}

// CachedPoll is implemented by the NIs whose receive poll is a cachable
// load of a block the device invalidates when it writes a message: the
// cachable-queue designs (§2.2). While the queue stays empty the poll
// hits and learns nothing new, so the messaging layer can run idle
// polls as engine probes (sim.Process.Spin). TryRecv is the poll load
// followed by RecvAfterPoll; the other methods are its pieces, with no
// simulated time of their own.
type CachedPoll interface {
	// PollHit reports whether the poll load would hit in the processor
	// cache. When it would, it counts the hit exactly as the load does;
	// otherwise it changes nothing.
	PollHit() bool
	// RecvEmpty reports whether no received message is visible to the
	// processor.
	RecvEmpty() bool
	// CountEmptyPoll records one poll that found nothing.
	CountEmptyPoll()
	// RecvAfterPoll is TryRecv after its poll load.
	RecvAfterPoll(p *sim.Process) *network.Msg
}

// Deps bundles what every NI needs from the node.
type Deps struct {
	Eng    *sim.Engine
	Stats  *sim.Stats
	Fabric *bus.Fabric
	CPU    *proc.CPU
	Net    network.Interconnect
	NodeID int
	Loc    params.BusKind
	Cfg    params.Config

	// SendQBase/RecvQBase are block-aligned base addresses of the send
	// and receive queue regions (pointer blocks + entry blocks). The
	// machine package allocates them and installs bus regions.
	SendQBase uint64
	RecvQBase uint64
	// ShadowBase is a node-private DRAM address used for the software's
	// per-queue shadow pointers and scratch variables.
	ShadowBase uint64
}

// name returns the canonical stats prefix for node id's NI.
func (d *Deps) name() string { return fmt.Sprintf("node%d.ni", d.NodeID) }

// niCounters are the per-NI interned stats handles, resolved once at
// construction so send/receive hot paths never concatenate or hash a
// stats key. The first four are common to every design; the rest are
// CQ-specific and interned by newCNIQ only.
type niCounters struct {
	sendFull, sendMsg          *sim.Counter
	recvPollEmpty, recvMsg     *sim.Counter
	sendHintPull, sendPull     *sim.Counter
	recvHeadRefresh, recvQFull *sim.Counter
	recvOverflowWB, recvUpdate *sim.Counter
}

// counters interns the counters every NI design records.
func (d *Deps) counters() niCounters {
	name := d.name()
	return niCounters{
		sendFull:      d.Stats.Counter(name + ".send.full"),
		sendMsg:       d.Stats.Counter(name + ".send.msg"),
		recvPollEmpty: d.Stats.Counter(name + ".recv.poll.empty"),
		recvMsg:       d.Stats.Counter(name + ".recv.msg"),
	}
}

// New constructs the NI selected by d.Cfg.
func New(d Deps) NI {
	switch d.Cfg.NI {
	case params.NI2w:
		return newNI2w(d)
	case params.CNI4:
		return newCNI4(d)
	case params.CNI16Q, params.CNI512Q:
		return newCNIQ(d, false)
	case params.CNI16Qm:
		return newCNIQ(d, true)
	case params.DMA:
		return newDMA(d)
	}
	panic("nic: unknown NI kind")
}

// Queue-region geometry shared by the CQ designs: block 0 holds the
// head pointer, block 1 the tail pointer, entries follow, one network
// message (4 blocks) per entry.
const (
	headPtrBlock = 0
	tailPtrBlock = 1
	entryBlock0  = 2
)

// entryAddr returns the address of block b of entry e in the queue
// region at base.
func entryAddr(base uint64, e, b int) uint64 {
	return base + uint64(entryBlock0+e*params.BlocksPerNetMsg+b)*params.BlockBytes
}

// headAddr returns the head-pointer block address for a queue region.
func headAddr(base uint64) uint64 { return base + headPtrBlock*params.BlockBytes }

// QueueRegionBytes returns the size of one CQ region (pointers +
// entries) for a queue of qblocks message blocks.
func QueueRegionBytes(qblocks int) uint64 {
	return uint64(entryBlock0+qblocks) * params.BlockBytes
}
