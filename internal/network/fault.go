package network

import (
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

// CorruptMask is XORed into a message's checksum by an injected
// corruption. The fault model is "ideal checksum": any corruption is
// detectable, so scrambling the checksum itself (rather than payload
// bytes the simulator doesn't carry) models a frame whose contents no
// longer match its checksum with detection probability 1.
const CorruptMask uint32 = 0xDEAD_BEEF

// AttachFaults hooks the injector into the shared fabric edge. Both
// fabrics inherit it: all per-message fault decisions are evaluated
// once, at the destination edge (arrive), which keeps the model
// fabric-agnostic; the fabrics themselves only consult the injector
// for the time-varying degrade window in their transit models.
func (ep *endpoints) AttachFaults(in *fault.Injector) {
	ep.inj = in
	ep.pauseWake = make([]bool, ep.n)
	ep.late = make([]sim.TimedFIFO[*Msg], ep.n)
	ep.dups = make([]sim.Pool[Msg], ep.n)
	ep.lateFns = make([]func(), ep.n)
	for dst := range ep.lateFns {
		ep.lateFns[dst] = func() {
			ep.arrivals[dst].Push(ep.late[dst].Pop())
			ep.drain(dst)
		}
	}
}

// passFaults applies the per-message fault decision to m at the
// destination edge. It reports whether m should continue to delivery;
// a false return means m was consumed here (dropped, or rescheduled
// for delayed arrival).
//
// Dropped messages still return their window credit: the sliding
// window models link-level credit flow control the fabric owns, so
// losing a data frame does not leak a credit — end-to-end reliability
// is the messaging transport's job, which is exactly the layering the
// retransmit tier depends on (a lost frame must not wedge the window).
func (ep *endpoints) passFaults(m *Msg) bool {
	in := ep.inj
	if m.Dup {
		// A duplicate copy was planned once already; it is delivered
		// as-is (never dropped, corrupted, or re-duplicated).
		return true
	}
	// Fault decisions execute on the destination's shard, so every
	// clock comparison uses the destination engine's now (on a serial
	// machine engAt is the one engine, byte-identically).
	eng := ep.engAt(m.Dst)
	now := eng.Now()
	if in.CrashedAt(m.Src, now) || in.CrashedAt(m.Dst, now) {
		in.NoteCrashDrop()
		if ep.rec != nil {
			ep.noteMsg(m.Dst, trace.KDrop, -1, m)
		}
		ep.scheduleAck(m)
		return false
	}
	pl := in.Plan(m.Src, m.Dst)
	if pl.Drop {
		if ep.rec != nil {
			ep.noteMsg(m.Dst, trace.KDrop, -1, m)
		}
		ep.scheduleAck(m)
		return false
	}
	if pl.Corrupt {
		m.Checksum ^= CorruptMask
	}
	if pl.Dup {
		ep.landLate(eng, ep.dupOf(m), 0)
	}
	if pl.Delay > 0 {
		// Reordering: m lands Delay cycles late, behind messages that
		// arrived after it.
		ep.landLate(eng, m, pl.Delay)
		return false
	}
	return true
}

// dupOf returns a duplicate copy of m drawn from its destination's
// pool; the copy's consumer returns it with FreeDup.
func (ep *endpoints) dupOf(m *Msg) *Msg {
	pool := &ep.dups[m.Dst]
	d := pool.Get()
	*d = *m
	d.Dup, d.pool = true, pool
	return d
}

// FreeDup returns a fault-injected duplicate copy to its destination's
// pool for reuse; any other frame is left alone. Call it where the
// last reference to the frame is dropped: the messaging layer does
// once it has dispatched or discarded the frame.
func FreeDup(m *Msg) {
	if pool := m.pool; pool != nil {
		*m = Msg{}
		pool.Put(m)
	}
}

// landLate queues m on its destination's late queue to reach the
// arrival queue delay cycles from now, without a second fault plan.
func (ep *endpoints) landLate(eng *sim.Engine, m *Msg, delay sim.Time) {
	ep.late[m.Dst].Push(eng.Now()+delay, m)
	eng.Schedule(delay, ep.lateFns[m.Dst])
}

// stallPaused parks dst's arrival queue for the remainder of dst's
// pause window and arranges a single drain retry when it closes.
func (ep *endpoints) stallPaused(dst int) {
	ep.inj.NotePaused()
	if ep.pauseWake[dst] {
		return
	}
	ep.pauseWake[dst] = true
	ep.engAt(dst).ScheduleAt(ep.inj.PauseEnd(dst), func() {
		ep.pauseWake[dst] = false
		ep.drain(dst)
	})
}

// pausedFor returns how long m's sender must wait for its node's pause
// to end, counting the stall, or 0 when the node is not paused.
func (ep *endpoints) pausedFor(m *Msg) sim.Time {
	if ep.inj == nil {
		return 0
	}
	now := ep.engAt(m.Src).Now()
	if !ep.inj.PausedAt(m.Src, now) {
		return 0
	}
	ep.inj.NotePaused()
	return ep.inj.PauseEnd(m.Src) - now
}
