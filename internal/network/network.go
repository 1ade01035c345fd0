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
	// Stamp carries the sender's intended-arrival instant end to end
	// (the open-loop workload's latency origin); 0 on plain sends. A
	// typed field, so stamped traffic boxes nothing.
	Stamp sim.Time
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
	// pool is the per-destination pool a duplicate copy was drawn from
	// (FreeDup), nil on every other frame.
	pool *sim.Pool[Msg]

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
	// Injector returns process p's handle for sending: a message waits
	// while p's node is paused and while the sliding window to its
	// destination is full, then is delivered on arrival or retried
	// when the destination port unblocks. then is p's step once a
	// waiting injection completes.
	Injector(p *sim.Process, then func()) *Injector
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

// window is one (src,dst) pair's sliding-window state. It exists only
// while the pair has messages in flight or senders waiting: admit
// opens it on first use and the credit that leaves it idle releases it
// to the source's pool.
type window struct {
	inFlight int32 // unacked messages
	src, dst int32
	// free signals senders blocked on a full window.
	free sim.Cond
	// ack is the slot's prebuilt window-credit return, so acking a
	// message schedules an existing func value instead of allocating a
	// closure per message. It reads src/dst at fire time, so it stays
	// valid when the slot is recycled for another pair.
	ack func()
}

// endpoints is the edge every fabric shares: per-(src,dst)
// sliding-window admission, per-destination arrival queues with
// backpressure, and window-credit acknowledgements. Implementations
// embed it and supply the transit model between admit and arrive.
type endpoints struct {
	eng    *sim.Engine
	window int
	n      int

	ports []Port
	// windows[src] holds src's live window slots by destination,
	// touched only on src's shard.
	windows []sim.PeerSlots[window]
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
	// late[dst] holds delayed frames and duplicate copies on their way
	// to dst's arrival queue, landed by the pre-built lateFns[dst]
	// (fault mode only).
	late    []sim.TimedFIFO[*Msg]
	lateFns []func()
	// dups[dst] pools duplicate copies bound for dst (fault mode only);
	// dst's messaging layer frees them (FreeDup).
	dups []sim.Pool[Msg]

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
	xkAck           // window-credit return for window (Node, Aux)
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
// and everything on a serial machine, schedule the window slot's own
// ack func locally. The cross event carries the pair in (Node, Aux)
// rather than holding m, whose buffer the transport may recycle once
// delivery completes. m's slot stays live until its credit returns,
// so the lookup always finds it.
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
	ep.engAt(m.Dst).Schedule(ep.ackLatency(m), ep.windows[m.Src].Get(m.Dst).ack)
}

// openWindow returns (src, dst)'s window slot, opening it if the pair
// is idle.
func (ep *endpoints) openWindow(src, dst int) *window {
	w := ep.windows[src].Acquire(dst)
	if w.ack == nil {
		w.ack = func() { ep.credit(w) }
	}
	w.src, w.dst = int32(src), int32(dst)
	return w
}

// credit returns one message's window credit, waking the
// longest-waiting sender, and releases the slot once it is idle. It
// runs on the source's shard.
func (ep *endpoints) credit(w *window) {
	w.inFlight--
	w.free.Signal()
	if w.inFlight == 0 && w.free.Waiting() == 0 {
		ep.windows[w.src].Release(int(w.dst))
	}
}

// init wires the shared edge state for n nodes.
func (ep *endpoints) init(e *sim.Engine, st *sim.Stats, n int, ackLatency func(*Msg) sim.Time) {
	ep.eng = e
	ep.window = params.NetWindow
	ep.n = n
	ep.ports = make([]Port, n)
	ep.windows = make([]sim.PeerSlots[window], n)
	ep.arrivals = make([]sim.FIFO[*Msg], n)
	ep.windowStalls = st.Counter("net.window.stall")
	ep.msgs = st.Counter("net.msg")
	ep.bytes = st.Counter("net.bytes")
	ep.backpressure = st.Counter("net.backpressure")
	ep.deliveryHist = st.Histogram("net.delivery")
	ep.ackLatency = ackLatency
}

// Register binds node id's port.
func (ep *endpoints) Register(id int, p Port) { ep.ports[id] = p }

// Nodes returns the node count.
func (ep *endpoints) Nodes() int { return ep.n }

// CanInject reports whether src may inject to dst without blocking.
func (ep *endpoints) CanInject(src, dst int) bool {
	return ep.InFlight(src, dst) < ep.window
}

// Injector is a process's handle for sending into the fabric: it
// admits one message at a time, waiting out its node's pause and then
// for window credit. Its wake steps are method values bound once, so
// injecting allocates nothing.
type Injector struct {
	ep     *endpoints
	launch func(*Msg) // the fabric's transit after admission
	p      *sim.Process
	then   func()
	m      *Msg
	// The wake steps, bound once as method values.
	pausedFn, windowedFn func()
}

// newInjector builds p's Injector for a fabric whose transit is launch.
func (ep *endpoints) newInjector(p *sim.Process, then func(), launch func(*Msg)) *Injector {
	in := &Injector{ep: ep, launch: launch, p: p, then: then}
	in.pausedFn, in.windowedFn = in.paused, in.windowed
	return in
}

// Process returns the process the Injector belongs to.
func (in *Injector) Process() *sim.Process { return in.p }

// Inject sends m. It reports true when m was admitted and launched at
// once; otherwise p waits — for its node's pause to end or for window
// credit — and runs then as its step once m has been launched.
func (in *Injector) Inject(m *Msg) bool {
	in.m = m
	if in.ep.rec != nil {
		in.ep.noteMsg(m.Src, trace.KInject, -1, m)
	}
	return in.admit(true)
}

// admit launches in.m unless it must wait, and reports whether it did.
// It looks at the pause only until the first wait for window credit:
// a sender already queued for credit is past its node's pause check.
func (in *Injector) admit(pause bool) bool {
	ep, m := in.ep, in.m
	if pause {
		if d := ep.pausedFor(m); d > 0 {
			in.p.After(d, in.pausedFn)
			return false
		}
	}
	w := ep.openWindow(m.Src, m.Dst)
	if int(w.inFlight) >= ep.window {
		ep.windowStalls.Inc()
		w.free.Await(in.p, in.windowedFn)
		return false
	}
	w.inFlight++
	ep.msgs.Inc()
	ep.bytes.Add(uint64(m.Size + params.HeaderBytes))
	m.SentAt = in.p.Now()
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
	in.m = nil
	in.launch(m)
	return true
}

func (in *Injector) paused() {
	if in.admit(true) {
		in.then()
	}
}

func (in *Injector) windowed() {
	if in.admit(false) {
		in.then()
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
func (ep *endpoints) InFlight(src, dst int) int {
	if w := ep.windows[src].Get(dst); w != nil {
		return int(w.inFlight)
	}
	return 0
}

// TotalInFlight sums unacked messages over every (src, dst) window —
// the sliding-window occupancy gauge the trace sampler reads.
func (ep *endpoints) TotalInFlight() int {
	total := 0
	for src := range ep.windows {
		for _, w := range ep.windows[src].All() {
			total += int(w.inFlight)
		}
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

	// transit holds in-flight messages in arrival order; the pre-built
	// arriveFn pops the one whose arrival event is firing, so no
	// per-message closure is allocated. Latency is constant unless a
	// degrade window scales it, so a push is almost always an append.
	transit  sim.TimedFIFO[*Msg]
	arriveFn func()
}

// New creates the default flat (contention-free) network for n nodes.
func New(e *sim.Engine, st *sim.Stats, n int) *Flat {
	f := &Flat{latency: params.NetLatency}
	f.init(e, st, n, func(*Msg) sim.Time { return f.latency })
	f.arriveFn = func() { f.arrive(f.transit.Pop()) }
	return f
}

// Injector returns p's sending handle: transit takes the network
// latency (scaled inside a degrade window).
func (f *Flat) Injector(p *sim.Process, then func()) *Injector {
	return f.newInjector(p, then, f.launch)
}

// launch starts admitted m's transit.
func (f *Flat) launch(m *Msg) {
	now, lat := f.eng.Now(), f.latency
	if f.inj != nil {
		lat = f.inj.LatencyAt(now, lat)
	}
	f.transit.Push(now+lat, m)
	f.eng.Schedule(lat, f.arriveFn)
}
