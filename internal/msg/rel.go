package msg

import (
	"slices"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Reliable-delivery transport (the tier above the fabric's sliding
// window, which is link-level credit flow control and deliberately
// recovers nothing). Enabled per machine by params.Faults.Active():
// any injected fault turns it on, and Faults.Transport forces it on
// for fault-free baseline runs. The design is a classic
// sequence-and-retransmit protocol kept deliberately small:
//
//   - every data frame on a (src, dst) stream carries a contiguous
//     1-based sequence number and a header checksum;
//   - the receiver delivers in order, buffers out-of-order frames,
//     suppresses duplicates, discards checksum failures, and returns
//     cumulative acks (batched, with a short delayed-ack timeout);
//   - the sender keeps a bounded unacked queue per peer, retransmits
//     the head on timeout with exponential backoff, and after
//     RelRetxBudget consecutive unacknowledged retransmits declares
//     the stream dead — every queued and future frame to that peer is
//     accounted in net.dead rather than retried forever.
//
// There are no timer processes: the paper's interface is polling-only
// (§3, no interrupts), so timers are checked lazily on every Send and
// Poll, which the messaging layer already requires applications to
// call to make progress.
const (
	// RelMaxUnacked is the per-peer stream window (frames).
	RelMaxUnacked = 32
	// RelRetxBase is the initial (and minimum) retransmit timeout in
	// cycles — a few unloaded round trips. Once acks flow, the timeout
	// adapts to the measured ack round trip (srtt + 4·rttvar, RFC
	// 6298 style), because a loaded torus legitimately delivers slower
	// than any fixed constant and a too-tight timer melts down into
	// spurious-retransmit storms.
	RelRetxBase = 4096
	// RelRetxInit is the pre-sample timeout a fresh stream starts at —
	// deliberately loose (a loaded torus ack round trip fits under it)
	// because a too-tight first-frame timer costs one spurious
	// retransmit per stream before the estimator has data.
	RelRetxInit = 16384
	// RelRtoMax caps the adapted/backed-off timeout.
	RelRtoMax = 1 << 19
	// RelRetxBackoff doubles the timeout per consecutive retransmit.
	RelRetxBackoff = 2
	// RelRetxBudget is the consecutive-retransmit limit after which a
	// stream is declared dead.
	RelRetxBudget = 8
	// RelAckBatch acks every Nth in-order delivery immediately.
	RelAckBatch = 4
	// RelAckDelayCycles bounds how long a partial ack batch may wait.
	RelAckDelayCycles = 512
	// RelNiRetryCycles is the retry delay when the NI refuses a
	// transport frame (retransmit or ack).
	RelNiRetryCycles = 64
	// RelChecksumCycles is the processor cost of stamping or verifying
	// a frame checksum (incremental/hardware-assisted, not a full
	// 256-byte software sum).
	RelChecksumCycles = 16
	// RelBookkeepCycles is the processor cost of ack bookkeeping.
	RelBookkeepCycles = 4
)

// relEntry is one sent-but-unacked data frame. Only the queue head is
// ever retransmitted, so retransmit state lives on the peer, not here.
type relEntry struct {
	m         *network.Msg
	firstSent sim.Time
}

// relPeer is the per-peer stream state, both halves.
type relPeer struct {
	// Sender half: frames we sent to the peer.
	nextSeq  uint64 // next sequence number to assign (1-based)
	unacked  sim.FIFO[relEntry]
	rto      sim.Time // current retransmit timeout
	srtt     int64    // smoothed ack round trip (0 = no sample yet)
	rttvar   int64    // round-trip variance estimate
	deadline sim.Time // head frame's retransmit deadline
	retries  int      // consecutive head retransmits without progress
	headRetx bool     // head frame has been retransmitted
	lastRetx sim.Time // when the stream last retransmitted (0 = never)
	dead     bool     // retry budget exhausted; sends are blackholed

	// Receiver half: frames the peer sent us.
	expect      uint64 // next in-order sequence number expected
	ooo         map[uint64]*network.Msg
	pendingAcks int      // in-order deliveries since the last ack
	ackDeadline sim.Time // 0 = no partial batch waiting
	ackDue      bool     // an ack send was refused; retry on tick
}

// rel is one node's transport endpoint.
type rel struct {
	ms *Messenger
	// peers holds the stream state of each peer this node has exchanged
	// frames with, opened on first contact and kept for the run
	// (sequence numbers outlive idle spells); order lists their ids
	// ascending, so timer sweeps visit peers in id order.
	peers sim.PeerSlots[relPeer]
	order []int
	// next caches the earliest pending timer (retransmit, delayed ack,
	// NI retry) so the per-Poll tick is a single comparison when
	// nothing is due.
	next sim.Time

	retransmits *sim.Counter
	dupSupp     *sim.Counter
	acks        *sim.Counter
	checksumBad *sim.Counter
	deadFrames  *sim.Counter
	oooBuffered *sim.Counter
	// recovery records send-to-ack latency of frames that needed at
	// least one retransmit ("net.recovery" in Stats).
	recovery *sim.Histogram
}

// newRel builds a node's transport endpoint. Counters are
// machine-global (shared Stats handles).
func newRel(ms *Messenger, st *sim.Stats) *rel {
	return &rel{
		ms:          ms,
		next:        sim.Forever,
		retransmits: st.Counter("net.retransmits"),
		dupSupp:     st.Counter("net.dup_suppressed"),
		acks:        st.Counter("net.acks"),
		checksumBad: st.Counter("net.checksum_fail"),
		deadFrames:  st.Counter("net.dead"),
		oooBuffered: st.Counter("net.ooo_buffered"),
		recovery:    st.Histogram("net.recovery"),
	}
}

// peer returns id's stream state, opening the stream on first contact.
func (r *rel) peer(id int) *relPeer {
	if pe := r.peers.Get(id); pe != nil {
		return pe
	}
	pe := r.peers.Acquire(id)
	pe.nextSeq, pe.expect, pe.rto = 1, 1, RelRetxInit
	i, _ := slices.BinarySearch(r.order, id)
	r.order = slices.Insert(r.order, i, id)
	return pe
}

// arm lowers the cached earliest-timer bound.
func (r *rel) arm(at sim.Time) {
	if at < r.next {
		r.next = at
	}
}

// tick runs every due timer. Called from Send and Poll; the fast path
// (nothing due) is one comparison.
func (r *rel) tick(p *sim.Process) {
	if p.Now() < r.next {
		return
	}
	r.next = sim.Forever
	// A node hosts one program, so no stream opens while tickPeer
	// yields the processor and order is stable across the sweep.
	for _, id := range r.order {
		r.tickPeer(p, id)
	}
}

// tickPeer flushes a due or refused ack and runs the retransmit timer
// for one peer, re-arming the timer cache with whatever remains.
func (r *rel) tickPeer(p *sim.Process, peer int) {
	pe := r.peer(peer)
	if pe.ackDue || (pe.ackDeadline != 0 && p.Now() >= pe.ackDeadline) {
		r.sendAck(p, peer, pe)
	} else if pe.ackDeadline != 0 {
		r.arm(pe.ackDeadline)
	}
	if pe.dead || pe.unacked.Len() == 0 {
		return
	}
	if p.Now() < pe.deadline {
		r.arm(pe.deadline)
		return
	}
	if pe.retries >= RelRetxBudget {
		r.streamDead(pe)
		return
	}
	// Timeout: retransmit the head (acks are cumulative, so the head
	// is the only frame the receiver can be missing first). A fresh
	// copy goes out — the original pointer may still be queued in the
	// fabric or the NI, and the fabric restamps SentAt on admission.
	mm := *pe.unacked.Peek().m
	mm.Dup = false
	r.ms.cpu.Compute(p, RelChecksumCycles)
	// Restamp: the sender checksums from its own buffer, so an injected
	// corruption of the in-flight frame never poisons the retransmit.
	mm.Checksum = HeaderChecksum(&mm)
	if r.ms.ni.TrySend(p, &mm) {
		pe.retries++
		pe.headRetx = true
		pe.lastRetx = p.Now()
		r.retransmits.Inc()
		if r.ms.rec != nil {
			r.ms.rec.Note(r.ms.node, trace.KRetx, mm.Seq, -1, int32(mm.Src), int32(mm.Dst), uint8(mm.Frag), 0)
		}
		if pe.rto *= RelRetxBackoff; pe.rto > RelRtoMax {
			pe.rto = RelRtoMax
		}
		pe.deadline = p.Now() + pe.rto
	} else {
		// NI full: try again shortly without burning a retry.
		pe.deadline = p.Now() + RelNiRetryCycles
	}
	r.arm(pe.deadline)
}

// streamDead gives up on a peer: the retry budget is exhausted, so
// every queued frame (and every future send) is accounted in net.dead
// instead of being retried forever, and the application proceeds.
func (r *rel) streamDead(pe *relPeer) {
	pe.dead = true
	r.deadFrames.Add(uint64(pe.unacked.Len()))
	for pe.unacked.Len() > 0 {
		pe.unacked.Pop()
	}
	pe.deadline = sim.Forever
}

// sendData stamps transport sequencing onto a data frame and hands it
// to the NI. Sequence numbers commit only on NI acceptance, so a
// refused TrySend leaves no gap in the stream. Frames to a dead peer
// report success and are accounted in net.dead.
func (r *rel) sendData(p *sim.Process, m *network.Msg) bool {
	r.tick(p)
	pe := r.peer(m.Dst)
	if pe.dead {
		r.deadFrames.Inc()
		return true
	}
	m.Seq = pe.nextSeq
	r.ms.cpu.Compute(p, RelChecksumCycles)
	m.Checksum = HeaderChecksum(m)
	if !r.ms.ni.TrySend(p, m) {
		return false
	}
	pe.nextSeq++
	pe.unacked.Push(relEntry{m: m, firstSent: p.Now()})
	if pe.unacked.Len() == 1 {
		// New head: fresh timer at the adapted timeout (the estimator
		// survives queue drains).
		pe.retries = 0
		pe.headRetx = false
		pe.deadline = p.Now() + pe.rto
		r.arm(pe.deadline)
	}
	return true
}

// waitWindow blocks until dst's stream window has space (or the
// stream dies). With wait false it reports the verdict instead of
// blocking, preserving TrySend's one-attempt contract.
func (r *rel) waitWindow(p *sim.Process, dst int, wait bool) bool {
	pe := r.peer(dst)
	for pe.unacked.Len() >= RelMaxUnacked && !pe.dead {
		if !wait {
			return false
		}
		r.ms.sendBlocks.Inc()
		r.tick(p)
		if !r.ms.drainOne(p) {
			r.ms.cpu.Compute(p, PollLoopCycles)
		}
	}
	return true
}

// onAckFrame handles a received ack frame (from Poll or a blocked
// send's drain — ack processing never touches the NI, so it is safe
// in both).
func (r *rel) onAckFrame(p *sim.Process, m *network.Msg) {
	r.ms.cpu.Compute(p, RelChecksumCycles)
	if m.Checksum != HeaderChecksum(m) {
		r.checksumBad.Inc()
		return
	}
	r.onAck(p, m.Src, m.Ack)
}

// onAck applies a cumulative ack from peer: every unacked frame with
// Seq <= ack is done. Progress resets the retransmit state and feeds
// the round-trip estimator.
func (r *rel) onAck(p *sim.Process, peer int, ack uint64) {
	pe := r.peer(peer)
	r.ms.cpu.Compute(p, RelBookkeepCycles)
	progress := false
	sample := int64(-1)
	for pe.unacked.Len() > 0 && pe.unacked.Peek().m.Seq <= ack {
		e := pe.unacked.Pop()
		if pe.headRetx {
			// Only the head is ever retransmitted, so the flag always
			// describes the first frame popped by this ack. Per Karn's
			// rule its round trip is ambiguous and normally unsampled —
			// except to seed an empty estimator, where first-send-to-ack
			// is a safe over-estimate (errs toward a looser timer).
			r.recovery.Record(p.Now() - e.firstSent)
			pe.headRetx = false
			if pe.srtt == 0 {
				sample = int64(p.Now() - e.firstSent)
			}
		} else if e.firstSent > pe.lastRetx {
			// Later pops were sent later, so the last one is the
			// tightest round-trip sample this ack offers — but only
			// frames sent after the stream's last retransmit qualify. A
			// frame that sat head-of-line-blocked behind a dropped head
			// is acked a full recovery late; sampling that stall as a
			// round trip would peg the estimator at the cap and turn
			// every later drop into a maximum-length outage.
			sample = int64(p.Now() - e.firstSent)
		}
		progress = true
	}
	if !progress {
		return
	}
	if sample >= 0 {
		pe.updateRTO(sample)
	}
	pe.retries = 0
	if pe.unacked.Len() > 0 {
		pe.deadline = p.Now() + pe.rto
		r.arm(pe.deadline)
	}
}

// updateRTO folds an ack round-trip sample into the RFC 6298-style
// estimator: rto = srtt + 4·rttvar, floored at RelRetxBase and capped
// at RelRtoMax. The sample includes the receiver's ack batching
// delay, which is exactly what the timer must outwait.
func (pe *relPeer) updateRTO(sample int64) {
	if pe.srtt == 0 {
		pe.srtt = sample
		pe.rttvar = sample / 2
	} else {
		d := sample - pe.srtt
		if d < 0 {
			d = -d
		}
		pe.rttvar += (d - pe.rttvar) / 4
		pe.srtt += (sample - pe.srtt) / 8
	}
	rto := pe.srtt + 4*pe.rttvar
	if rto < RelRetxBase {
		rto = RelRetxBase
	}
	if rto > RelRtoMax {
		rto = RelRtoMax
	}
	pe.rto = sim.Time(rto)
}

// onData runs a received data frame through the sequence check. It
// reports whether the frame is the next in-order delivery; a false
// return means the transport consumed it (duplicate, out-of-order
// buffered, or checksum failure).
func (r *rel) onData(p *sim.Process, m *network.Msg) bool {
	r.ms.cpu.Compute(p, RelChecksumCycles)
	if m.Checksum != HeaderChecksum(m) {
		// Injected corruption: discard; the sender's timeout recovers.
		r.checksumBad.Inc()
		r.ms.putMsg(m)
		return false
	}
	pe := r.peer(m.Src)
	switch {
	case m.Seq == pe.expect:
		pe.expect++
		pe.pendingAcks++
		return true
	case m.Seq < pe.expect:
		// Duplicate (fault-injected, or a retransmit racing its ack):
		// suppress, and re-ack so a sender missing the ack advances.
		r.dupSupp.Inc()
		r.sendAck(p, m.Src, pe)
		r.ms.putMsg(m)
		return false
	default:
		if pe.ooo == nil {
			pe.ooo = make(map[uint64]*network.Msg)
		}
		_, dup := pe.ooo[m.Seq]
		if dup {
			r.dupSupp.Inc()
		} else {
			pe.ooo[m.Seq] = m
			r.oooBuffered.Inc()
		}
		// Ack immediately: tells the sender where the stream stands.
		r.sendAck(p, m.Src, pe)
		if dup {
			r.ms.putMsg(m)
		}
		return false
	}
}

// nextReady releases the next in-order frame freed up by a delivery,
// if the out-of-order buffer holds it.
func (r *rel) nextReady(src int) *network.Msg {
	pe := r.peer(src)
	if pe.ooo == nil {
		return nil
	}
	m, ok := pe.ooo[pe.expect]
	if !ok {
		return nil
	}
	delete(pe.ooo, pe.expect)
	pe.expect++
	pe.pendingAcks++
	return m
}

// ackProgress closes out a Poll's delivery batch: a full batch acks
// now, a partial one starts (or keeps) the delayed-ack timer.
func (r *rel) ackProgress(p *sim.Process, peer int) {
	pe := r.peer(peer)
	if pe.pendingAcks >= RelAckBatch {
		r.sendAck(p, peer, pe)
		return
	}
	if pe.pendingAcks > 0 && pe.ackDeadline == 0 {
		pe.ackDeadline = p.Now() + RelAckDelayCycles
		r.arm(pe.ackDeadline)
	}
}

// sendAck emits a cumulative ack frame to peer. Refusal by the NI
// marks the ack due and retries on a later tick — acks are pure
// control traffic and must never block the caller.
func (r *rel) sendAck(p *sim.Process, peer int, pe *relPeer) {
	a := &network.Msg{
		Src: r.ms.node, Dst: peer,
		IsAck: true, Ack: pe.expect - 1,
		Blocks: 1, FragTotal: 1,
	}
	r.ms.cpu.Compute(p, RelChecksumCycles)
	a.Checksum = HeaderChecksum(a)
	if !r.ms.ni.TrySend(p, a) {
		pe.ackDue = true
		r.arm(p.Now() + RelNiRetryCycles)
		return
	}
	pe.ackDue = false
	pe.pendingAcks = 0
	pe.ackDeadline = 0
	r.acks.Inc()
	if r.ms.rec != nil {
		r.ms.rec.Note(r.ms.node, trace.KAck, a.Ack, -1, int32(a.Src), int32(a.Dst), 0, trace.FlagAck)
	}
}
