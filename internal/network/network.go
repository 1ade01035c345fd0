// Package network models the machine's interconnect fabric. The
// fabric is pluggable behind the Interconnect interface; two
// implementations exist:
//
//   - Flat (New) — the paper's §4.1 idealised network: topology is
//     ignored, every message takes a constant 100 processor cycles
//     from injection of the last byte at the source to arrival of the
//     first byte at the destination. The default.
//   - Torus (NewTorus) — a 2D torus with dimension-order routing,
//     per-link FIFO arbitration, single-message-at-a-time link
//     occupancy, and a per-hop latency, for experiments where the
//     interconnect itself is the bottleneck.
//
// Both share the paper's framing: network messages are a fixed 256
// bytes, and hardware flow control is an end-to-end sliding window —
// a node may have up to four messages in flight per destination
// before the sender blocks waiting for acknowledgements.
package network

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Msg is one fixed-size network message. Payload semantics belong to
// the messaging layer; the network only routes and times it.
type Msg struct {
	Src, Dst int
	// Handler is the active-message handler index (carried in the
	// 12-byte header along with Size and sequencing).
	Handler int
	// Size is the user-payload byte count in this network message
	// (≤ params.MaxPayloadBytes).
	Size int
	// Blocks is how many 64-byte blocks of NI queue space the message
	// occupies (header + payload, rounded up).
	Blocks int
	// Payload carries app-level data end to end.
	Payload any
	// Frag/FragTotal sequence multi-network-message user messages.
	Frag, FragTotal int
	// ID is the sender-local user-message id fragments share.
	ID uint64
	// TotalBytes is the full user-message payload size.
	TotalBytes int
	// SentAt is stamped by the fabric at admission (after any
	// sliding-window stall) and drives the delivery-latency telemetry;
	// it costs nothing in simulated time.
	SentAt sim.Time

	// Seq is the reliable-transport per-(src,dst) stream sequence
	// number, 1-based; 0 means the frame is unsequenced (transport off,
	// or an ack frame).
	Seq uint64
	// IsAck marks a transport-level cumulative-acknowledgement frame
	// (Seq-free; its Ack field is the highest contiguously received
	// data sequence number).
	IsAck bool
	// Ack carries the cumulative acknowledgement on IsAck frames.
	Ack uint64
	// Checksum covers the header fields end to end (msg.HeaderChecksum);
	// injected corruption scrambles it and the transport's verify
	// rejects the frame.
	Checksum uint32
	// Dup marks a fault-injected duplicate copy. Internal to the fabric
	// edge: duplicates return no window credit and are never re-planned
	// for faults.
	Dup bool

	// xkey is the sharded engine's deterministic merge tiebreak,
	// assigned per admission (sharded machines only): the source node
	// in the high bits over a per-source monotonic stamp. Every cross-
	// shard event derived from this message carries it by value, so
	// (time, xkey, kind) totally orders cross events independently of
	// shard count. Zero on serial machines.
	xkey uint64
}

// MsgBlocks returns the queue blocks consumed by a network message
// carrying size payload bytes.
func MsgBlocks(size int) int {
	b := (size + params.HeaderBytes + params.BlockBytes - 1) / params.BlockBytes
	if b < 1 {
		b = 1
	}
	if b > params.BlocksPerNetMsg {
		panic(fmt.Sprintf("network: payload %d exceeds one network message", size))
	}
	return b
}

// MsgWords returns the number of 8-byte words (header + payload) the
// message occupies, for uncached word-at-a-time NIs.
func MsgWords(size int) int {
	return (size + params.HeaderBytes + 7) / 8
}

// Port is a network endpoint — one node's NI. Delivery is push-based:
// the network offers a message and the port either accepts it
// (returning true, which triggers the ack that opens the sender's
// window) or refuses it (buffer full), in which case the message
// waits at the head of the port's arrival queue and is re-offered
// when the port calls Unblock.
type Port interface {
	// NetDeliver offers an arrived message to the NI.
	NetDeliver(m *Msg) bool
}

// Interconnect is the fabric connecting the ports. NI devices inject;
// the fabric times the traversal, delivers through Port.NetDeliver,
// and returns window credits to senders.
type Interconnect interface {
	// Register binds node id's port. Must be called before traffic
	// flows.
	Register(id int, p Port)
	// Nodes returns the node count.
	Nodes() int
	// CanInject reports whether src may inject to dst without
	// blocking on the sliding window.
	CanInject(src, dst int) bool
	// Inject sends m, blocking the calling (device) process while the
	// sliding window to m.Dst is full. Delivery is attempted on
	// arrival and retried when the destination port unblocks.
	Inject(p *sim.Process, m *Msg)
	// Unblock tells the fabric that dst's NI freed buffer space; any
	// waiting arrivals are re-offered.
	Unblock(dst int)
	// Pending reports undelivered arrivals at dst (diagnostics).
	Pending(dst int) int
	// InFlight reports unacked messages from src to dst (diagnostics).
	InFlight(src, dst int) int
	// AttachFaults hooks a fault injector into the fabric edge. When
	// never called the fault path is fully disabled and the fabric's
	// behaviour is bit-identical to a build without the fault layer.
	AttachFaults(in *fault.Injector)
	// AttachTrace hooks a lifecycle recorder into the fabric edge.
	// Same contract as AttachFaults: never called means fully
	// disabled, bit-identical behaviour; attached, it records and
	// changes nothing.
	AttachTrace(rec *trace.Recorder)
}

var (
	_ Interconnect = (*Flat)(nil)
	_ Interconnect = (*Torus)(nil)
)

// endpoints is the edge every fabric shares: per-(src,dst)
// sliding-window admission, per-destination arrival queues with
// backpressure, and window-credit acknowledgements. Implementations
// embed it and supply the transit model between admit and arrive.
type endpoints struct {
	eng    *sim.Engine
	window int
	n      int

	// Per-(src,dst) window state is struct-of-arrays, indexed by
	// slot = src*n+dst: flat parallel slices (counts in int32, conds
	// packed by value) rather than n² little heap objects, so the
	// admit/ack path walks two arrays.
	ports    []Port
	inFlight []int32 // inFlight[slot] counts unacked messages
	// windowFree[slot] signals senders blocked on a full window.
	windowFree []sim.Cond
	// arrivals[dst] holds messages the port refused, FIFO.
	arrivals []sim.FIFO[*Msg]

	windowStalls *sim.Counter
	msgs         *sim.Counter
	bytes        *sim.Counter
	backpressure *sim.Counter
	// deliveryHist records admission-to-acceptance latency per
	// delivered message ("net.delivery" in Stats): transit plus any
	// queueing at links and at the destination port. Pure telemetry —
	// recording consumes no simulated time.
	deliveryHist *sim.Histogram

	// ackFns[slot] is the pre-built window-credit-return callback, so
	// acking a message schedules an existing func value instead of
	// allocating a fresh closure per message.
	ackFns []func()
	// ackLatency returns the credit-return delay for an accepted
	// message (set once by the embedding fabric).
	ackLatency func(m *Msg) sim.Time

	// inj is the fault injector, nil when faults are off — the zero-
	// fault path pays one nil check per arrival and nothing else.
	inj *fault.Injector
	// rec is the lifecycle recorder, nil when tracing is off — the
	// untraced path pays one nil check per hook site and nothing else.
	rec *trace.Recorder
	// pauseWake[dst] records that a drain-retry event is already
	// scheduled for dst's current pause window.
	pauseWake []bool

	// sh is the sharded engine coordinator, nil on serial machines —
	// the serial path pays one nil check per hook site and is
	// byte-identical to a build without the sharded layer. When set,
	// eng is shard 0's engine and per-node work runs on engAt(node).
	sh *sim.ShardSet
	// stamp[src] is the per-source admission counter behind Msg.xkey
	// (sharded machines only). Written only at admission, which runs
	// on src's shard.
	stamp []uint64
}

// Cross-event kinds routed through sim.ShardSet (sharded machines).
const (
	xkArrive = iota // torus link arrival: Msg lands at Node for routing
	xkAck           // window-credit return for slot (Node, Aux)
)

// engAt returns the engine owning node: the single engine on a serial
// machine, node's shard engine on a sharded one.
func (ep *endpoints) engAt(node int) *sim.Engine {
	if ep.sh == nil {
		return ep.eng
	}
	return ep.sh.Engine(node)
}

// attachShards switches the edge to sharded operation. The embedding
// fabric wires the dispatch side.
func (ep *endpoints) attachShards(sh *sim.ShardSet) {
	ep.sh = sh
	ep.stamp = make([]uint64, ep.n)
}

// scheduleAck returns m's window credit to the sender after the ack
// latency. On a sharded machine a cross-node credit travels through
// the deterministic-merge inboxes to the source's shard (the window
// state and any process blocked on it live there); same-node credits,
// and everything on a serial machine, schedule locally. The ack event
// carries the slot in (Node, Aux) rather than holding m, whose buffer
// the transport may recycle once delivery completes.
func (ep *endpoints) scheduleAck(m *Msg) {
	if ep.sh != nil && m.Src != m.Dst {
		eng := ep.sh.Engine(m.Dst)
		ep.sh.Cross(m.Dst, sim.CrossEvent{
			At:   eng.Now() + ep.ackLatency(m),
			Key:  m.xkey<<1 | 1,
			Kind: xkAck,
			Node: int32(m.Src),
			Aux:  int32(m.Dst),
		})
		return
	}
	ep.engAt(m.Dst).Schedule(ep.ackLatency(m), ep.ackFns[m.Src*ep.n+m.Dst])
}

// init wires the shared edge state for n nodes.
func (ep *endpoints) init(e *sim.Engine, st *sim.Stats, n int, ackLatency func(*Msg) sim.Time) {
	ep.eng = e
	ep.window = params.NetWindow
	ep.n = n
	ep.ports = make([]Port, n)
	ep.inFlight = make([]int32, n*n)
	ep.arrivals = make([]sim.FIFO[*Msg], n)
	ep.windowStalls = st.Counter("net.window.stall")
	ep.msgs = st.Counter("net.msg")
	ep.bytes = st.Counter("net.bytes")
	ep.backpressure = st.Counter("net.backpressure")
	ep.deliveryHist = st.Histogram("net.delivery")
	ep.windowFree = make([]sim.Cond, n*n)
	ep.ackFns = make([]func(), n*n)
	for i := range ep.windowFree {
		ep.windowFree[i].Init(e)
		slot := i
		ep.ackFns[i] = func() {
			ep.inFlight[slot]--
			ep.windowFree[slot].Signal()
		}
	}
	ep.ackLatency = ackLatency
}

// Register binds node id's port.
func (ep *endpoints) Register(id int, p Port) { ep.ports[id] = p }

// Nodes returns the node count.
func (ep *endpoints) Nodes() int { return ep.n }

// CanInject reports whether src may inject to dst without blocking.
func (ep *endpoints) CanInject(src, dst int) bool {
	return int(ep.inFlight[src*ep.n+dst]) < ep.window
}

// admit blocks p while the window to m.Dst is full, then charges the
// message against the window and the traffic counters.
func (ep *endpoints) admit(p *sim.Process, m *Msg) {
	if ep.rec != nil {
		ep.noteMsg(m.Src, trace.KInject, -1, m)
	}
	if ep.inj != nil {
		ep.admitFaults(p, m)
	}
	slot := m.Src*ep.n + m.Dst
	for int(ep.inFlight[slot]) >= ep.window {
		ep.windowStalls.Inc()
		ep.windowFree[slot].Wait(p)
	}
	ep.inFlight[slot]++
	ep.msgs.Inc()
	ep.bytes.Add(uint64(m.Size + params.HeaderBytes))
	m.SentAt = p.Now()
	if ep.sh != nil {
		// The merge tiebreak: source node over a per-source monotonic
		// stamp, assigned on the source's shard. Re-admissions (the
		// transport's retransmits) re-stamp; in-flight cross events
		// copied the old value and are unaffected.
		ep.stamp[m.Src]++
		m.xkey = uint64(m.Src+1)<<40 | ep.stamp[m.Src]&(1<<40-1)
	}
	if ep.rec != nil {
		ep.noteMsg(m.Src, trace.KAdmit, -1, m)
	}
}

// arrive queues m at the destination and attempts delivery.
func (ep *endpoints) arrive(m *Msg) {
	if ep.inj != nil && !ep.passFaults(m) {
		return
	}
	ep.arrivals[m.Dst].Push(m)
	ep.drain(m.Dst)
}

// drain offers queued messages to the port in order until it refuses.
func (ep *endpoints) drain(dst int) {
	if ep.inj != nil && ep.inj.PausedAt(dst, ep.engAt(dst).Now()) {
		ep.stallPaused(dst)
		return
	}
	port := ep.ports[dst]
	for ep.arrivals[dst].Len() > 0 {
		m := ep.arrivals[dst].Peek()
		if !port.NetDeliver(m) {
			ep.backpressure.Inc()
			return
		}
		ep.arrivals[dst].Pop()
		if ep.rec != nil {
			ep.noteMsg(dst, trace.KDeliver, -1, m)
		}
		if m.Dup {
			// The original copy already returned this message's window
			// credit; a duplicate must not return it twice.
			continue
		}
		ep.deliveryHist.Record(ep.engAt(dst).Now() - m.SentAt)
		// Return the window credit to the sender after the ack latency.
		ep.scheduleAck(m)
	}
}

// Unblock re-offers waiting arrivals after dst's NI freed space.
func (ep *endpoints) Unblock(dst int) { ep.drain(dst) }

// Pending reports undelivered arrivals at dst (diagnostics).
func (ep *endpoints) Pending(dst int) int { return ep.arrivals[dst].Len() }

// InFlight reports unacked messages from src to dst (diagnostics).
func (ep *endpoints) InFlight(src, dst int) int { return int(ep.inFlight[src*ep.n+dst]) }

// DeliveryLatency exposes the fabric's delivery-latency histogram
// (also reachable as the "net.delivery" histogram in Stats).
func (ep *endpoints) DeliveryLatency() *sim.Histogram { return ep.deliveryHist }

// TotalInFlight sums unacked messages over every (src, dst) window —
// the sliding-window occupancy gauge the trace sampler reads.
func (ep *endpoints) TotalInFlight() int {
	total := 0
	for _, v := range ep.inFlight {
		total += int(v)
	}
	return total
}

// TotalPending sums undelivered arrivals over every destination — the
// fabric-edge backlog gauge the trace sampler reads.
func (ep *endpoints) TotalPending() int {
	total := 0
	for i := range ep.arrivals {
		total += ep.arrivals[i].Len()
	}
	return total
}

// Flat is the paper's fixed-latency network (§4.1): topology is
// ignored and transit takes a constant latency regardless of load.
type Flat struct {
	endpoints
	latency sim.Time

	// transit holds in-flight messages in injection order. Latency is
	// constant, so arrival events fire in the same order and the
	// pre-built arriveFn pops the matching message — no per-message
	// closure is allocated.
	transit  sim.FIFO[*Msg]
	arriveFn func()
}

// New creates the default flat (contention-free) network for n nodes.
func New(e *sim.Engine, st *sim.Stats, n int) *Flat {
	f := &Flat{latency: params.NetLatency}
	f.init(e, st, n, func(*Msg) sim.Time { return f.latency })
	f.arriveFn = func() { f.arrive(f.transit.Pop()) }
	return f
}

// Inject sends m, blocking the calling (device) process while the
// sliding window to m.Dst is full. Transit takes the network latency;
// delivery is attempted on arrival and retried when the destination
// port unblocks.
func (f *Flat) Inject(p *sim.Process, m *Msg) {
	f.admit(p, m)
	if f.inj != nil {
		// Fault mode: the degrade window makes latency time-varying, so
		// the constant-latency transit FIFO (which relies on arrivals
		// firing in injection order) cannot be used. Schedule a
		// per-message closure instead; the allocation is the price of
		// running with faults on.
		f.eng.Schedule(f.inj.LatencyAt(f.eng.Now(), f.latency), func() { f.arrive(m) })
		return
	}
	f.transit.Push(m)
	f.eng.Schedule(f.latency, f.arriveFn)
}
