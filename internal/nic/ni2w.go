package nic

import (
	"repro/internal/bus"
	"repro/internal/network"
	"repro/internal/params"
	"repro/internal/sim"
)

// ni2w is the conventional baseline modelled after the Thinking
// Machines CM-5 NI (§3): all accesses to the NI queues are uncachable,
// the device exposes two 4-byte words of the message, and the hardware
// send/receive FIFOs are shallow. Sends poll an uncached status
// register, then write the message word-by-word with uncached stores;
// receives poll an uncached status register, then read the message
// word-by-word with uncached loads (the final read implicitly pops,
// clear-on-read).
type ni2w struct {
	d    Deps
	name string
	ctr  niCounters

	// Both FIFOs hold at most params.NI2wFIFOMsgs messages.
	sendFIFO *outQ          // committed, awaiting injection
	stageQ   []*network.Msg // composed, commit store still in flight

	recvFIFO []*network.Msg
}

func newNI2w(d Deps) *ni2w {
	n := &ni2w{d: d, name: d.name(), ctr: d.counters()}
	d.Fabric.Attach(n, d.Loc)
	n.sendFIFO = newOutQ(d, n.name+".inject")
	return n
}

func (n *ni2w) Kind() params.NIKind { return params.NI2w }

// AgentName implements bus.Agent.
func (n *ni2w) AgentName() string { return n.name }

// AgentClass implements bus.Agent.
func (n *ni2w) AgentClass() params.AgentClass { return params.ClassDevice }

// SnoopTx implements bus.Agent; NI2w holds no cachable state.
func (n *ni2w) SnoopTx(tx bus.Tx, isHome bool) bus.Snoop { return bus.Snoop{} }

// RegRead implements bus.Device.
func (n *ni2w) RegRead(reg uint64) uint64 {
	switch reg {
	case RegSendStatus:
		if n.sendFIFO.msgs.Len()+len(n.stageQ) < params.NI2wFIFOMsgs {
			return 1
		}
		return 0
	case RegRecvStatus:
		if len(n.recvFIFO) == 0 {
			return 0
		}
		return uint64(network.MsgWords(n.recvFIFO[0].Size))
	case RegRecvData:
		// Word data; values are carried logically, so return a token.
		return 1
	}
	return 0
}

// RegWrite implements bus.Device.
func (n *ni2w) RegWrite(reg, val uint64) {
	switch reg {
	case RegSendData:
		// Word writes land in the outgoing hardware FIFO; the message
		// object itself is attached at commit.
	case RegSendCommit:
		if len(n.stageQ) == 0 {
			panic("ni2w: commit without staged message")
		}
		if n.sendFIFO.msgs.Len() >= params.NI2wFIFOMsgs {
			panic("ni2w: send FIFO overflow (software skipped the status check)")
		}
		n.sendFIFO.push(n.stageQ[0])
		n.stageQ = n.stageQ[1:]
	}
}

// TrySend implements the CM-5-like send: one uncached status load, and
// if there is room, MsgWords uncached stores plus a commit store.
func (n *ni2w) TrySend(p *sim.Process, m *network.Msg) bool {
	if n.d.CPU.UncachedLoad(p, n, RegSendStatus, 1) == 0 {
		n.ctr.sendFull.Inc()
		return false
	}
	words := network.MsgWords(m.Size)
	for w := 0; w < words; w++ {
		n.d.CPU.UncachedStore(p, n, RegSendData, uint64(w))
	}
	n.stageQ = append(n.stageQ, m)
	n.d.CPU.UncachedStore(p, n, RegSendCommit, 1)
	// The CM-5 send checks send_ok after pushing (a failed push would
	// retry); the check is an uncached load that also serialises the
	// posted stores. Our admission check above reserved the slot, so
	// the read simply confirms.
	n.d.CPU.UncachedLoad(p, n, RegSendStatus, 1)
	n.ctr.sendMsg.Inc()
	return true
}

// TryRecv implements the CM-5-like receive: an uncached status poll;
// on success, word-by-word uncached loads, the last of which pops the
// hardware FIFO.
func (n *ni2w) TryRecv(p *sim.Process) *network.Msg {
	words := n.d.CPU.UncachedLoad(p, n, RegRecvStatus, 1)
	if words == 0 {
		n.ctr.recvPollEmpty.Inc()
		return nil
	}
	n.d.CPU.UncachedLoad(p, n, RegRecvData, int(words))
	m := n.recvFIFO[0]
	n.recvFIFO = n.recvFIFO[1:]
	n.ctr.recvMsg.Inc()
	// Clear-on-read freed a FIFO slot: let blocked arrivals in.
	n.d.Net.Unblock(n.d.NodeID)
	return m
}

// NetDeliver implements network.Port: accept into the hardware FIFO if
// there is room.
func (n *ni2w) NetDeliver(m *network.Msg) bool {
	if len(n.recvFIFO) >= params.NI2wFIFOMsgs {
		return false
	}
	n.recvFIFO = append(n.recvFIFO, m)
	return true
}
