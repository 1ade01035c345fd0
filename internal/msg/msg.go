// Package msg is the Tempest-like user-level messaging layer
// (paper §4.1): active messages sent and received by user code with
// no interrupts, fragmented into fixed 256-byte network messages with
// a 12-byte header, plus the software flow control the paper
// describes — when a send blocks, the processor extracts incoming
// messages from the NI and buffers them in user space to avoid
// deadlock (except CNI16Qm, whose receive queue overflows to memory
// in hardware, but the drain path is identical and simply never finds
// the NI refusing).
package msg

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/nic"
	"repro/internal/params"
	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Software-path costs in processor cycles. The messaging layer's
// control code is a handful of instructions around each operation.
const (
	// PollLoopCycles is the loop overhead of one poll iteration.
	PollLoopCycles = 4
	// DispatchCycles is the active-message handler dispatch cost
	// (header decode plus indirect call).
	DispatchCycles = 10
)

// Context is what an active-message handler receives.
type Context struct {
	P   *sim.Process
	CPU *proc.CPU
	M   *Messenger
	Src int // sending node
	// Size is the full user-message payload size in bytes.
	Size int
	// Payload is the logical content the sender attached.
	Payload any
	// Stamp is the sender's intended-arrival instant (SendStamped); 0
	// on plain sends.
	Stamp sim.Time
}

// Handler is an active-message handler, run on the receiving node's
// process during a Poll.
type Handler func(ctx *Context)

// partialKey identifies an in-reassembly user message.
type partialKey struct {
	src int
	id  uint64
}

type partial struct {
	got     int
	total   int
	size    int
	handler int
	payload any
	stamp   sim.Time
}

// Messenger is one node's messaging endpoint.
type Messenger struct {
	node int
	cpu  *proc.CPU
	ni   nic.NI

	handlers map[int]Handler
	// swBuf holds messages drained from the NI by flow control,
	// dispatched on later polls before new NI traffic.
	swBuf   []*network.Msg
	partial map[partialKey]*partial
	nextID  uint64
	bufAddr uint64 // user-space staging buffer for copies

	// Sent/Received count dispatched user messages (diagnostics).
	Sent     uint64
	Received uint64
	// QuietProbed counts the wakes of idle polls that quietSpin's probe
	// re-armed without resuming the process (diagnostics: the engine's
	// Probed count also holds other probes, such as cache-hit runs).
	QuietProbed uint64

	sendBlocks *sim.Counter
	swBuffered *sim.Counter

	// rel is the reliable-delivery transport, nil unless the machine's
	// fault configuration activates it (params.Faults.Active). When
	// nil the message path is bit-identical to a pre-transport build.
	rel *rel

	// quiet is the NI's cached-poll interface when PollUntil may run
	// idle polls as engine probes: a cachable-queue NI with the
	// transport off (the transport's tick is simulated work in every
	// poll). Nil otherwise.
	quiet nic.CachedPoll

	// Free lists for the per-message boxes that escape through
	// interface calls (frames through nic.NI, contexts through
	// Handler): without them every user message costs several heap
	// allocations, which the steady-state alloc pin forbids. Frames
	// are pooled only on the fault-free path — with the transport on,
	// an admitted frame lives in retransmit buffers past delivery and
	// must stay heap-owned. Contexts and partials never outlive accept
	// and pool unconditionally; free lists (not single slots) keep
	// nested dispatch from a draining handler safe.
	frames      *FramePool
	partialFree []*partial
	ctxFree     []*Context
	spinFree    []*quietSpin

	// rec is the lifecycle recorder, nil unless the machine's trace
	// configuration activates it (params.Trace.Active). Hooks behind
	// nil checks, same contract as rel: nil is bit-identical to a
	// pre-trace build.
	rec *trace.Recorder
}

// New creates a messenger for a node. bufAddr is a node-private DRAM
// address used as the user-level staging buffer; f decides whether the
// reliable-delivery transport engages.
func New(node int, cpu *proc.CPU, ni nic.NI, st *sim.Stats, bufAddr uint64, f params.Faults) *Messenger {
	prefix := fmt.Sprintf("node%d.msg", node)
	ms := &Messenger{
		node:       node,
		cpu:        cpu,
		ni:         ni,
		handlers:   make(map[int]Handler),
		partial:    make(map[partialKey]*partial),
		bufAddr:    bufAddr,
		frames:     &FramePool{},
		sendBlocks: st.Counter(prefix + ".send.block"),
		swBuffered: st.Counter(prefix + ".swbuffered"),
	}
	if f.Active() {
		ms.rel = newRel(ms, st)
	} else if cp, ok := ni.(nic.CachedPoll); ok {
		ms.quiet = cp
	}
	return ms
}

// AttachTrace hooks the lifecycle recorder into the messaging layer:
// user-message dispatch and the reliable tier's ack/retransmit
// events. Never called means fully disabled and bit-identical.
func (ms *Messenger) AttachTrace(rec *trace.Recorder) { ms.rec = rec }

// RetxBacklog reports the reliable tier's sent-but-unacked frame
// count summed over all peers (0 with the transport off) — the trace
// sampler's retransmit-backlog gauge.
func (ms *Messenger) RetxBacklog() int {
	if ms.rel == nil {
		return 0
	}
	total := 0
	for _, pe := range ms.rel.peers.All() {
		total += pe.unacked.Len()
	}
	return total
}

// Register installs the handler for id. Handlers must be registered
// before traffic flows; re-registration replaces.
func (ms *Messenger) Register(id int, h Handler) { ms.handlers[id] = h }

// Send transmits a user message of size bytes to dst, invoking handler
// there. It blocks (in simulated time) until every fragment is handed
// to the NI, draining incoming messages to user space whenever the NI
// cannot accept (software flow control, §4.1).
func (ms *Messenger) Send(p *sim.Process, dst, handler, size int, payload any) {
	ms.sendFrags(p, dst, handler, size, payload, 0, true)
}

// SendStamped is Send carrying an intended-arrival instant that the
// receiving handler reads as Context.Stamp.
func (ms *Messenger) SendStamped(p *sim.Process, dst, handler, size int, stamp sim.Time) {
	ms.sendFrags(p, dst, handler, size, nil, stamp, true)
}

// TrySend is Send without the blocking flow control: it attempts to
// hand the message's first fragment to the NI exactly once and
// reports whether the send was admitted. On refusal nothing was sent
// (the failed admission check's processor cost is still charged, as
// on hardware) and the caller decides how to back off. Once the first
// fragment is admitted the send is committed: any remaining fragments
// go through the same blocking flow-control path Send uses, so a
// multi-fragment message is never left half-sent.
func (ms *Messenger) TrySend(p *sim.Process, dst, handler, size int, payload any) bool {
	return ms.sendFrags(p, dst, handler, size, payload, 0, false)
}

// sendFrags fragments and transmits one user message. With block
// false the first fragment gets exactly one admission attempt and a
// refusal abandons the whole send (reported false); once the first
// fragment is admitted — or always, with block true — the remaining
// fragments ride the blocking flow control.
func (ms *Messenger) sendFrags(p *sim.Process, dst, handler, size int, payload any, stamp sim.Time, block bool) bool {
	if dst == ms.node {
		panic("msg: self-send not supported; use local queues")
	}
	// Claim the id up front: a blocking send can yield mid-flight, and
	// another process on the same node must never reuse it. A refused
	// TrySend burns its id, which is harmless — ids only need to be
	// unique per (src, dst) stream.
	id := ms.nextID
	ms.nextID++
	frags := (size + params.MaxPayloadBytes - 1) / params.MaxPayloadBytes
	if frags < 1 {
		frags = 1
	}
	for f := 0; f < frags; f++ {
		fsize := params.MaxPayloadBytes
		if f == frags-1 {
			fsize = size - f*params.MaxPayloadBytes
		}
		m := ms.getMsg()
		*m = network.Msg{
			Src:        ms.node,
			Dst:        dst,
			Handler:    handler,
			Size:       fsize,
			Blocks:     network.MsgBlocks(fsize),
			Payload:    payload,
			Stamp:      stamp,
			Frag:       f,
			FragTotal:  frags,
			ID:         id,
			TotalBytes: size,
		}
		// Read the fragment out of the user buffer (cached, mostly hits).
		ms.cpu.LoadRange(p, ms.bufAddr+uint64(f*params.MaxPayloadBytes), fsize)
		// Reliable transport: wait for stream-window space first. A
		// TrySend first fragment gets one non-blocking check; committed
		// fragments block like the NI flow control below.
		if ms.rel != nil && !ms.rel.waitWindow(p, dst, block || f > 0) {
			return false
		}
		for tries := 0; !ms.trySendFrame(p, m); tries++ {
			if !block && f == 0 {
				ms.putMsg(m) // refused before admission: the NI holds no reference
				return false
			}
			ms.sendBlocks.Inc()
			// §4.1 flow control: a blocked sender extracts incoming
			// messages and buffers them in user space. "Blocked" means
			// persistently refused, not one transient failure — so the
			// first retry just spins, avoiding needless double
			// handling of messages the NI could still hold.
			if tries == 0 || !ms.drainOne(p) {
				ms.cpu.Compute(p, PollLoopCycles)
			}
		}
	}
	ms.Sent++
	return true
}

// trySendFrame hands one network message to the NI, going through the
// reliable transport's sequencing when it is on.
func (ms *Messenger) trySendFrame(p *sim.Process, m *network.Msg) bool {
	if ms.rel != nil {
		return ms.rel.sendData(p, m)
	}
	return ms.ni.TrySend(p, m)
}

// drainOne pulls one message out of the NI into the user-space buffer
// (no dispatch — that happens on a later Poll). Returns false if the
// NI had nothing.
func (ms *Messenger) drainOne(p *sim.Process) bool {
	m := ms.ni.TryRecv(p)
	if m == nil {
		return false
	}
	if ms.rel != nil && m.IsAck {
		// Acks are transport control traffic: processed on the spot
		// (ack bookkeeping never touches the NI, so this is safe even
		// inside a blocked send) and never surfaced to user space.
		ms.rel.onAckFrame(p, m)
		ms.putMsg(m)
		return true
	}
	// Copy into the user-space buffer.
	ms.cpu.StoreRange(p, ms.bufAddr+uint64(len(ms.swBuf)%64)*params.NetMsgBytes, m.Size+params.HeaderBytes)
	ms.swBuf = append(ms.swBuf, m)
	ms.swBuffered.Inc()
	return true
}

// Poll checks for one incoming network message — software buffer
// first, then the NI — and dispatches its handler if it completes a
// user message. It reports whether a network message was consumed.
func (ms *Messenger) Poll(p *sim.Process) bool { return ms.poll(p, pollStart) }

// pollPoint is where a poll iteration starts: PollUntil and DrainIdle
// resume an iteration their probes spun through at the wake they
// stopped at.
type pollPoint uint8

const (
	pollStart     pollPoint = iota // before the loop overhead
	afterOverhead                  // at the loop overhead's wake
	afterLoad                      // at the NI poll load's wake (CachedPoll NIs)
	afterSleep                     // at an idle loop's sleep wake (DrainIdle)
)

// poll is one poll iteration from the given point on. It is Poll's body
// in one frame: every process's receive path runs through it, and
// deeper frames here grow coroutine stacks.
func (ms *Messenger) poll(p *sim.Process, from pollPoint) bool {
	if from == pollStart {
		ms.cpu.Compute(p, PollLoopCycles)
	}
	if from != afterLoad && ms.rel != nil {
		ms.rel.tick(p)
	}
	var m *network.Msg
	if from != afterLoad && len(ms.swBuf) > 0 {
		m = ms.swBuf[0]
		ms.swBuf = ms.swBuf[1:]
		// Re-read from the user-space buffer (cached).
		ms.cpu.LoadRange(p, ms.bufAddr, m.Size+params.HeaderBytes)
	} else {
		if from == afterLoad {
			m = ms.quiet.RecvAfterPoll(p)
		} else {
			m = ms.ni.TryRecv(p)
		}
		if m == nil {
			return false
		}
		if ms.rel != nil && m.IsAck {
			ms.rel.onAckFrame(p, m)
			ms.putMsg(m)
			return true
		}
		// Copy payload from the NI queue image to the user buffer.
		ms.cpu.StoreRange(p, ms.bufAddr, m.Size)
	}
	if ms.rel != nil {
		return ms.relDeliver(p, m)
	}
	ms.accept(p, m)
	ms.putMsg(m) // fault-free path: nothing references the frame past accept
	return true
}

// FramePool recycles network frame boxes across the messengers that
// share it. Exactly one engine may touch a pool: serial machines
// share one pool machine-wide (frames retire at the receiver, so
// per-node pools would drain at every sender while a hotspot sink
// hoards them), and sharded machines keep one pool per node so
// concurrent shard engines never race on it.
type FramePool struct{ free []*network.Msg }

// ShareFramePool points the messenger at a shared pool; call before
// any traffic.
func (ms *Messenger) ShareFramePool(fp *FramePool) { ms.frames = fp }

// getMsg pops a recycled frame box, or allocates one on a cold pool.
func (ms *Messenger) getMsg() *network.Msg {
	fp := ms.frames
	n := len(fp.free)
	if n == 0 {
		return new(network.Msg)
	}
	m := fp.free[n-1]
	fp.free = fp.free[:n-1]
	return m
}

// putMsg recycles a dead frame. A fault-injected duplicate copy goes
// back to the fabric's pool. With the reliable transport active other
// frames outlive delivery in retransmit and reorder buffers, so the
// pool is bypassed and the collector owns them as before.
func (ms *Messenger) putMsg(m *network.Msg) {
	if m.Dup {
		network.FreeDup(m)
		return
	}
	if ms.rel != nil {
		return
	}
	m.Payload = nil // don't pin user payloads while pooled
	ms.frames.free = append(ms.frames.free, m)
}

// relDeliver runs a data frame through the receive-side transport:
// sequence check, in-order dispatch, release of any buffered
// successors it unblocks, then ack batching.
func (ms *Messenger) relDeliver(p *sim.Process, m *network.Msg) bool {
	if !ms.rel.onData(p, m) {
		return true // consumed by the transport (dup/out-of-order/corrupt)
	}
	src := m.Src
	ms.accept(p, m)
	ms.putMsg(m)
	for next := ms.rel.nextReady(src); next != nil; next = ms.rel.nextReady(src) {
		ms.accept(p, next)
		ms.putMsg(next)
	}
	ms.rel.ackProgress(p, src)
	return true
}

// accept reassembles and dispatches.
func (ms *Messenger) accept(p *sim.Process, m *network.Msg) {
	k := partialKey{m.Src, m.ID}
	pa, ok := ms.partial[k]
	if !ok {
		if n := len(ms.partialFree); n > 0 {
			pa = ms.partialFree[n-1]
			ms.partialFree = ms.partialFree[:n-1]
		} else {
			pa = new(partial)
		}
		*pa = partial{total: m.FragTotal, handler: m.Handler, payload: m.Payload, stamp: m.Stamp, size: m.TotalBytes}
		ms.partial[k] = pa
	}
	pa.got++
	if pa.got < pa.total {
		return
	}
	delete(ms.partial, k)
	ms.Received++
	if ms.rec != nil {
		ms.rec.Note(ms.node, trace.KUserDeliver, m.ID, -1, int32(m.Src), int32(ms.node), 0, 0)
	}
	h, ok := ms.handlers[pa.handler]
	if !ok {
		panic(fmt.Sprintf("msg: node %d has no handler %d", ms.node, pa.handler))
	}
	src, size, payload, stamp := m.Src, pa.size, pa.payload, pa.stamp
	pa.payload = nil
	ms.partialFree = append(ms.partialFree, pa)
	ms.cpu.Compute(p, DispatchCycles)
	ctx := ms.getCtx()
	*ctx = Context{P: p, CPU: ms.cpu, M: ms, Src: src, Size: size, Payload: payload, Stamp: stamp}
	h(ctx)
	ms.putCtx(ctx)
}

// getCtx/putCtx recycle dispatch contexts. A Context is valid only
// for the duration of the handler call; handlers copy what they keep.
func (ms *Messenger) getCtx() *Context {
	n := len(ms.ctxFree)
	if n == 0 {
		return new(Context)
	}
	c := ms.ctxFree[n-1]
	ms.ctxFree = ms.ctxFree[:n-1]
	return c
}

func (ms *Messenger) putCtx(c *Context) {
	c.Payload = nil
	ms.ctxFree = append(ms.ctxFree, c)
}

// PollUntil polls until pred is true, advancing simulated time each
// iteration (handlers run inline and typically change pred's inputs).
//
// pred must be pure: it may read simulation state but must not perform
// simulated operations or have side effects. On a cachable-queue NI the
// engine evaluates it itself, inside idle iterations that never resume
// the process (quietSpin), possibly twice at one instant.
func (ms *Messenger) PollUntil(p *sim.Process, pred func() bool) {
	var s *quietSpin
	for got := true; !pred(); {
		if got || ms.quiet == nil {
			got = ms.poll(p, pollStart)
			continue
		}
		// The last poll found nothing: spin until an iteration would
		// differ from it, and resume the loop at that point.
		if s == nil {
			s = ms.getSpin(p)
			s.pred = pred
		}
		s.at = afterOverhead
		p.Spin(PollLoopCycles, s)
		got = ms.poll(p, s.at)
	}
	if s != nil {
		ms.putSpin(s)
	}
}

// IdleRule is an idle loop's rule for what follows a drain that ends at
// now having consumed drained network messages: the loop sleeps sleep
// cycles (0: not at all), and after waking drains again while its clock
// is below until.
type IdleRule func(now sim.Time, drained int) (sleep, until sim.Time)

// DrainIdle runs an idle loop's "drain, then sleep" iterations under
// rule: it dispatches everything available, as DrainAvailable does,
// then sleeps as rule says, and returns at the first wake at or after
// until, or at once when rule says not to sleep.
//
// rule must be pure, like PollUntil's pred. On a cachable-queue NI the
// engine runs the iterations after the first drain as probes
// (quietSpin), at the (time, seq) keys of the plain loop's sleep, loop
// overhead and poll load, and resumes the process only at a wake where
// the loop would do something else: the sleep reaching until, the poll
// load missing, a message becoming visible, or rule saying not to sleep.
func (ms *Messenger) DrainIdle(p *sim.Process, rule IdleRule) {
	var s *quietSpin
	for from := pollStart; ; {
		n := ms.drain(p, from)
		d, until := rule(p.Now(), n)
		if d == 0 {
			break
		}
		if ms.quiet == nil {
			p.Sleep(d)
			break
		}
		if s == nil {
			s = ms.getSpin(p)
			s.rule = rule
		}
		s.at, s.until = afterSleep, until
		p.Spin(d, s)
		if from = s.at; from == afterSleep {
			break
		}
	}
	if s != nil {
		ms.putSpin(s)
	}
}

// quietSpin runs the idle iterations of one PollUntil or DrainIdle call
// as engine probes (sim.Process.Spin). While the queue is empty the poll
// load hits — the NI's write of a message invalidates the polled block
// (§2.2) — so an idle poll is two checks at the process's own wakes: at
// the end of the loop overhead, that the software buffer is empty and
// the poll load hits; at the end of the load, that the queue is still
// empty. PollUntil's next iteration then starts once pred is false;
// DrainIdle's drain has ended, so it sleeps as its rule says and, at the
// sleep's wake, starts the next iteration while the clock is below
// until. Any other outcome resumes the process at that very point of
// the loop. Each call has its own, since several processes on one node
// may poll at once.
type quietSpin struct {
	ms *Messenger
	p  *sim.Process
	at pollPoint // the point of the loop the pending wake ends at

	pred  func() bool // PollUntil's; nil for DrainIdle
	rule  IdleRule    // DrainIdle's
	until sim.Time    // DrainIdle's: the rule's until for the pending sleep
}

// Probe implements sim.Spinner.
func (s *quietSpin) Probe() (sim.Time, bool) {
	ms := s.ms
	switch s.at {
	case afterSleep:
		if s.p.Now() >= s.until {
			return 0, true
		}
		s.at = afterOverhead
		ms.QuietProbed++
		return PollLoopCycles, false
	case afterOverhead:
		if len(ms.swBuf) > 0 || !ms.quiet.PollHit() {
			return 0, true
		}
		s.at = afterLoad
		ms.QuietProbed++
		return params.HitCycles, false
	}
	if !ms.quiet.RecvEmpty() {
		return 0, true
	}
	if s.pred != nil {
		if s.pred() {
			return 0, true
		}
		s.at = afterOverhead
		ms.quiet.CountEmptyPoll()
		ms.QuietProbed++
		return PollLoopCycles, false
	}
	d, until := s.rule(s.p.Now(), 0)
	if d == 0 {
		return 0, true
	}
	s.at, s.until = afterSleep, until
	ms.quiet.CountEmptyPoll()
	ms.QuietProbed++
	return d, false
}

// getSpin/putSpin recycle quietSpins, like getCtx/putCtx.
func (ms *Messenger) getSpin(p *sim.Process) *quietSpin {
	var s *quietSpin
	if n := len(ms.spinFree); n > 0 {
		s = ms.spinFree[n-1]
		ms.spinFree = ms.spinFree[:n-1]
	} else {
		s = &quietSpin{ms: ms}
	}
	s.p = p
	return s
}

func (ms *Messenger) putSpin(s *quietSpin) {
	// Don't pin the caller's process or closures while pooled.
	s.p, s.pred, s.rule = nil, nil, nil
	ms.spinFree = append(ms.spinFree, s)
}

// DrainAvailable dispatches everything currently available without
// blocking; returns the number of network messages consumed.
func (ms *Messenger) DrainAvailable(p *sim.Process) int { return ms.drain(p, pollStart) }

// drain is DrainAvailable starting its first poll at from.
func (ms *Messenger) drain(p *sim.Process, from pollPoint) int {
	n := 0
	for ms.poll(p, from) {
		n++
		from = pollStart
	}
	return n
}
