package scenario

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/sim"
)

// inboxHandler is the reserved active-message handler id behind
// Endpoint.Send/Recv. Ids 90..99 belong to library services (the apps
// barrier) and user handlers start at 100 (apps.HApp); 1 is below
// both. Handle rejects it — overwriting the inbox registration would
// silently hang every Recv on the node.
const inboxHandler = 1

// Message is one user message as seen by Recv.
type Message struct {
	// Src is the sending node.
	Src int
	// Size is the payload size in bytes.
	Size int
	// Payload is the logical content the sender attached.
	Payload any
}

// Handler is an active-message handler: it runs on the receiving
// node's process during one of that node's polls (Recv, Poll,
// PollUntil, Drain). A blocked Send only buffers incoming messages —
// it never dispatches handlers — so handlers need no reentrancy
// guard against the node's own sends.
type Handler func(d *Delivery)

// Delivery is what a Handler receives. It is valid only for the
// duration of the handler call (the box is recycled afterwards);
// handlers copy the fields they keep.
type Delivery struct {
	// EP is the receiving node's endpoint; handler code uses it to
	// reply, compute, or touch memory at the receiver's cost.
	EP *Endpoint
	// Src is the sending node.
	Src int
	// Size is the full user-message payload size in bytes.
	Size int
	// Payload is the logical content the sender attached.
	Payload any
	// Stamp is the sender's intended-arrival instant (SendStamped); 0
	// for every other send.
	Stamp sim.Time
}

// Endpoint is one node's interface to the simulated machine. Its
// methods charge the configured NI/bus/fabric costs to the node's
// process, so they may only be called from that node's scenario body
// (or from a Handler dispatched on it). Handle may additionally be
// called before Run, while wiring a scenario up.
type Endpoint struct {
	m    *Machine
	node *machine.Node
	p    *sim.Process // bound while the node's scenario body runs

	inbox sim.FIFO[Message]
	// inboxReady is Recv's PollUntil predicate, built once so Recv
	// allocates nothing per call.
	inboxReady func() bool

	// dlvFree recycles Delivery boxes, which escape through the
	// Handler interface — one per dispatched user message otherwise.
	// A free list (not a single slot) keeps a handler that drains
	// nested deliveries safe.
	dlvFree []*Delivery
}

// ID returns the node id.
func (ep *Endpoint) ID() int { return ep.node.ID }

// Clock returns the current simulated time in cycles — the node's own
// shard clock on a sharded machine (the only clock its process can
// coherently observe mid-run).
func (ep *Endpoint) Clock() sim.Time {
	if ep.p != nil {
		return ep.p.Now()
	}
	return ep.m.Clock()
}

// Handle installs h for active-message handler id. Handlers must be
// installed before traffic with that id arrives; re-installation
// replaces. Registration is free in simulated time. Id 1 is reserved
// for the endpoint inbox (Send/Recv) and is rejected.
func (ep *Endpoint) Handle(id int, h Handler) {
	if id == inboxHandler {
		panic(fmt.Sprintf("scenario: handler id %d is reserved for the endpoint inbox", inboxHandler))
	}
	ep.node.Msgr.Register(id, func(c *msg.Context) {
		var d *Delivery
		if n := len(ep.dlvFree); n > 0 {
			d = ep.dlvFree[n-1]
			ep.dlvFree = ep.dlvFree[:n-1]
		} else {
			d = new(Delivery)
		}
		*d = Delivery{EP: ep, Src: c.Src, Size: c.Size, Payload: c.Payload, Stamp: c.Stamp}
		h(d)
		d.Payload = nil
		ep.dlvFree = append(ep.dlvFree, d)
	})
}

// Send transmits size payload bytes to dst's inbox (Recv on the far
// side). It blocks in simulated time until the NI accepts every
// fragment, running the messaging layer's software flow control
// (§4.1) while blocked.
func (ep *Endpoint) Send(dst, size int, payload any) {
	ep.node.Msgr.Send(ep.p, dst, inboxHandler, size, payload)
}

// TrySend is Send without the blocking flow control: if the NI
// refuses the message's first fragment it returns false and nothing
// was sent (the failed admission check's cost is still charged, as
// the hardware would). Once the first fragment is admitted the send
// is committed and any remaining fragments use the blocking path.
func (ep *Endpoint) TrySend(dst, size int, payload any) bool {
	return ep.node.Msgr.TrySend(ep.p, dst, inboxHandler, size, payload)
}

// Recv blocks (in simulated time) until a message addressed to this
// node's inbox arrives, polling the NI and dispatching any other
// handlers' traffic along the way.
func (ep *Endpoint) Recv() Message {
	ep.node.Msgr.PollUntil(ep.p, ep.inboxReady)
	return ep.inbox.Pop()
}

// TryRecv performs one poll and returns an inbox message if one is
// (or just became) available.
func (ep *Endpoint) TryRecv() (Message, bool) {
	if ep.inbox.Len() == 0 {
		ep.node.Msgr.Poll(ep.p)
	}
	if ep.inbox.Len() == 0 {
		return Message{}, false
	}
	return ep.inbox.Pop(), true
}

// SendTo transmits size payload bytes to the given active-message
// handler on dst, blocking like Send. It is the general form behind
// Send; the paper's benchmarks are written with it.
func (ep *Endpoint) SendTo(dst, handler, size int, payload any) {
	ep.node.Msgr.Send(ep.p, dst, handler, size, payload)
}

// SendStamped is SendTo with no payload, carrying an intended-arrival
// instant that the handler reads as Delivery.Stamp: a typed field of
// the frame, so stamped traffic allocates nothing per message.
func (ep *Endpoint) SendStamped(dst, handler, size int, stamp sim.Time) {
	ep.node.Msgr.SendStamped(ep.p, dst, handler, size, stamp)
}

// TrySendTo is TrySend aimed at an explicit handler.
func (ep *Endpoint) TrySendTo(dst, handler, size int, payload any) bool {
	return ep.node.Msgr.TrySend(ep.p, dst, handler, size, payload)
}

// Poll checks for one incoming message and dispatches its handler if
// it completes a user message; it reports whether a network message
// was consumed. One poll costs the messaging layer's loop overhead
// even when idle.
func (ep *Endpoint) Poll() bool { return ep.node.Msgr.Poll(ep.p) }

// PollUntil polls until pred is true, advancing simulated time each
// iteration (handlers run inline and typically change pred's inputs).
func (ep *Endpoint) PollUntil(pred func() bool) {
	ep.node.Msgr.PollUntil(ep.p, pred)
}

// Drain dispatches everything currently available without blocking
// and returns the number of network messages consumed.
func (ep *Endpoint) Drain() int { return ep.node.Msgr.DrainAvailable(ep.p) }

// DrainIdle runs an idle loop's "drain, then sleep" iterations
// (msg.Messenger.DrainIdle): drain everything available, then sleep
// rule's sleep cycles (0: none), returning at the first wake at or after
// rule's until. rule is handed the clock after each drain and the
// network messages that drain consumed, and must be pure, like
// PollUntil's pred.
func (ep *Endpoint) DrainIdle(rule func(now sim.Time, drained int) (sleep, until sim.Time)) {
	ep.node.Msgr.DrainIdle(ep.p, rule)
}

// Compute charges n cycles of local computation.
func (ep *Endpoint) Compute(n sim.Time) { ep.node.CPU.Compute(ep.p, n) }

// Load reads bytes from the node's private user region at byte
// offset off, through the processor cache (hits cost a cycle, misses
// real bus traffic).
func (ep *Endpoint) Load(off uint64, bytes int) {
	ep.node.CPU.LoadRange(ep.p, machine.UserBase+off, bytes)
}

// Store writes bytes to the node's private user region at byte
// offset off, through the processor cache.
func (ep *Endpoint) Store(off uint64, bytes int) {
	ep.node.CPU.StoreRange(ep.p, machine.UserBase+off, bytes)
}

// Sleep suspends the node's process for d cycles.
func (ep *Endpoint) Sleep(d sim.Time) { ep.p.Sleep(d) }

// Sent returns how many user messages this endpoint has dispatched.
func (ep *Endpoint) Sent() uint64 { return ep.node.Msgr.Sent }

// Received returns how many user messages this endpoint has
// delivered to handlers.
func (ep *Endpoint) Received() uint64 { return ep.node.Msgr.Received }

// QuietProbed returns how many idle-poll wakes of this endpoint's
// PollUntil, Recv and DrainIdle the engine ran as probes
// (msg.Messenger.QuietProbed).
func (ep *Endpoint) QuietProbed() uint64 { return ep.node.Msgr.QuietProbed }
