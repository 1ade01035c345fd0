// Package sim provides a deterministic discrete-event simulation engine
// with cooperative coroutine-style processes.
//
// The engine is the substrate for the whole CNI reproduction: buses,
// caches, network-interface devices, and the simulated processors are
// all either event callbacks or Processes scheduled by one Engine.
//
// Determinism: events fire in (time, sequence) order, and each process
// is a coroutine that runs only while the engine has resumed it — the
// engine does not proceed until that process parks or terminates, so at
// most one process runs at any instant. Two runs with the same inputs
// therefore produce identical schedules. A loop that only re-checks
// state at each wake (an idle poll, a range of cache accesses) may park
// in Process.Spin: the engine then runs its checks as probes at the
// same (time, seq) keys, without resuming the process, and a probe runs
// its process's bus transactions as driven steps.
//
// An Engine is not safe for concurrent use from outside the simulation;
// all interaction must happen from event callbacks or processes.
// Distinct Engines are fully independent, so whole simulations may run
// concurrently on separate goroutines (the harness exploits this).
package sim

import (
	"fmt"
	"math/bits"
)

// Time is the simulation clock in 200 MHz processor cycles.
type Time uint64

// Forever is a time later than any practical simulation horizon.
const Forever Time = 1<<63 - 1

// event is one pending occurrence. Process wakes are the inner loop of
// every simulation, so they are stored unboxed (p != nil) rather than
// as a per-wake closure: dispatching one costs no allocation and no
// indirect call through a fresh func value.
type event struct {
	at  Time
	seq uint64
	fn  func()   // the callback, or driven process p's step; nil resumes p's coroutine
	p   *Process // the process the event wakes; nil for a plain callback
}

// before reports whether e fires before o in deterministic
// (time, sequence) order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// ringSize is the calendar ring's span: an event due fewer than
// ringSize cycles after the queue's base goes on the ring, any later
// one on the heap. It spans the workload generators' 256-cycle poll
// quantum, so an idle node's sleep re-arms on the ring too. Eight
// 64-bit words of occupancy bits cover it.
const (
	ringSize  = 512
	ringWords = ringSize / 64
)

// ringEvent is one event on the calendar ring, linked into its cycle's
// FIFO by slab index.
type ringEvent struct {
	ev   event
	next int32 // the next event due the same cycle, or the next free entry; 0 ends the list
}

// ringSlot is one cycle's FIFO on the ring (slab indices, 0 when empty).
type ringSlot struct{ head, tail int32 }

// eventHeap is the engine's event queue: a calendar ring (Brown, CACM
// 1988) for events due within ringSize cycles beside a hand-rolled
// 4-ary min-heap for the rest.
//
// Most events land a few cycles ahead — process wakes, bus and cache
// steps, spinning probes re-arming 1 or 4 cycles out — so the ring
// takes them in O(1): slot at%ringSize holds one cycle's FIFO, and an
// occupancy bitmap finds the next busy slot with a TrailingZeros64 per
// word it looks at. Every ring event is due in [base, base+ringSize),
// where base is the time of the last event popped (no pending event is
// earlier), so a slot never mixes cycles; and local sequence numbers
// rise in push order, so each FIFO is already in (time, seq) order.
// Ring events live in one slab with index links and a free list:
// per-cycle slices would each keep their peak capacity.
//
// The heap takes events due further out, near events pushed while the
// slab has no free entry (Run then grows it), and the coordinator's
// class-1 cross-shard events, whose sequence numbers are not in push
// order. It stores events inline (no interface{} boxing, so push and
// pop allocate nothing once warm), and a 4-ary tree halves a binary
// heap's depth. The earliest event is whichever of the ring head and
// the heap top comes first in (time, seq) order, so events dispatch
// exactly as they would from one heap holding them all.
type eventHeap struct {
	a    []event // 4-ary min-heap of far and cross events
	base Time    // the last popped event's time

	slab  []ringEvent       // ring events; entry 0 is unused, so index 0 means none
	first int32             // the earliest ring event
	free  int32             // first free slab entry
	short bool              // a near event found no free entry; Run grows the slab
	near  int               // events on the ring
	occ   [ringWords]uint64 // bit s%64 of word s/64: slot s holds events
	slot  [ringSize]ringSlot
}

func (h *eventHeap) len() int { return len(h.a) + h.near }

// min returns the earliest event, or nil when none is pending.
func (h *eventHeap) min() *event {
	if h.first != 0 {
		r := &h.slab[h.first].ev
		if len(h.a) == 0 || r.before(&h.a[0]) {
			return r
		}
		return &h.a[0]
	}
	if len(h.a) == 0 {
		return nil
	}
	return &h.a[0]
}

// ringFirst reports whether the ring head is the earliest event. The
// queue must be non-empty.
func (h *eventHeap) ringFirst() bool {
	return h.first != 0 && (len(h.a) == 0 || h.slab[h.first].ev.before(&h.a[0]))
}

// push inserts ev, which must not be due before base: a local event
// due within ringSize cycles goes to the tail of its cycle's FIFO when
// the slab has a free entry, anything else into the heap. Both paths
// share this one frame — push is at the bottom of most fn event
// chains, which run on process stacks, so another call level here
// would deepen them.
func (h *eventHeap) push(ev event) {
	if ev.at-h.base < ringSize && ev.seq < class1Base {
		if i := h.free; i != 0 {
			r := &h.slab[i]
			h.free = r.next
			r.ev, r.next = ev, 0
			h.link(i, uint(ev.at)%ringSize)
			h.near++
			return
		}
		h.short = true
	}
	h.a = append(h.a, ev)
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !h.a[i].before(&h.a[parent]) {
			break
		}
		h.a[i], h.a[parent] = h.a[parent], h.a[i]
		i = parent
	}
}

// grow doubles the slab (32 entries at first), threading the new
// entries onto the free list.
// Only Run calls it, on its caller's goroutine: the allocation's call
// chain would otherwise land on a process's coroutine stack (fn events
// and Engine.next run there) and could double it, which over thousands
// of processes costs megabytes.
//
//go:noinline
func (h *eventHeap) grow() {
	h.short = false
	n := len(h.slab)
	h.slab = append(h.slab, make([]ringEvent, max(n, 32))...)
	for i := len(h.slab) - 1; i >= n; i-- {
		h.slab[i].next = h.free
		h.free = int32(i)
	}
}

// link appends slab entry i to slot s's FIFO; i's next must be 0.
func (h *eventHeap) link(i int32, s uint) {
	sl := &h.slot[s]
	if sl.head == 0 {
		sl.head = i
		h.occ[s>>6] |= 1 << (s & 63)
		if h.first == 0 || h.slab[i].ev.at < h.slab[h.first].ev.at {
			h.first = i
		}
	} else {
		h.slab[sl.tail].next = i
	}
	sl.tail = i
}

// scan returns the head of the first busy slot from slot s onwards,
// round the ring, which must not be empty: it masks off the bits of slot
// s's word below s, then walks the later words, coming back last to the
// whole of s's word. The search order is time order because every ring
// event is due within ringSize cycles of the cycle slot s belongs to.
func (h *eventHeap) scan(s uint) int32 {
	w := s / 64
	m := h.occ[w] &^ (1<<(s%64) - 1)
	for m == 0 {
		w = (w + 1) % ringWords
		m = h.occ[w]
	}
	return h.slot[w*64+uint(bits.TrailingZeros64(m))].head
}

// pop removes and returns the earliest event. The queue must be
// non-empty. Its heap path is inline, as its ring path is, so that
// popping costs Engine.next no deeper stack than the heap alone did.
func (h *eventHeap) pop() event {
	if !h.ringFirst() {
		top := h.a[0]
		n := len(h.a) - 1
		h.a[0] = h.a[n]
		h.a[n] = event{} // drop fn/p references so finished events can be collected
		h.a = h.a[:n]
		h.siftDown()
		h.base = top.at
		return top
	}
	i := h.first
	next, s := h.slab[i].next, uint(h.slab[i].ev.at)%ringSize
	h.slot[s].head, h.first = next, next
	if next == 0 {
		h.occ[s>>6] &^= 1 << (s & 63)
		if h.near > 1 {
			h.first = h.scan(s)
		}
	}
	r := &h.slab[i]
	ev := r.ev
	r.ev, r.next = event{}, h.free // drop fn/p references so finished events can be collected
	h.free = i
	h.near--
	h.base = ev.at
	return ev
}

// rearm moves the earliest event — a spinning process's wake — delay
// cycles later with sequence number seq. A wake at the ring head keeps
// its slab entry and only moves to the tail of its new cycle's FIFO. A
// wake at the heap's top gets its new key in place, and rearm reports
// false: the caller must then sift it down. That call is left to
// Engine.probe so that, as with the heap alone, nothing deeper than
// siftDown runs under a probe on the process stack; only a ring wake
// re-armed beyond the ring calls out, to pop and push.
func (h *eventHeap) rearm(delay Time, seq uint64) bool {
	if !h.ringFirst() {
		top := &h.a[0]
		top.at, top.seq = top.at+delay, seq
		h.base = top.at - delay
		return false
	}
	if delay >= ringSize {
		ev := h.pop()
		ev.at, ev.seq = ev.at+delay, seq
		h.push(ev)
		return true
	}
	i := h.first
	r := &h.slab[i]
	next, at := r.next, r.ev.at
	h.base = at
	s, t := uint(at)%ringSize, uint(at+delay)%ringSize
	r.ev.at, r.ev.seq, r.next = at+delay, seq, 0
	h.slot[s].head = next
	if next == 0 {
		h.occ[s>>6] &^= 1 << (s & 63)
	}
	sl := &h.slot[t]
	if sl.head == 0 {
		sl.head = i
		h.occ[t>>6] |= 1 << (t & 63)
	} else {
		h.slab[sl.tail].next = i
	}
	sl.tail = i
	if next != 0 {
		h.first = next
	} else {
		h.first = h.scan(s) // finds slot t at the latest
	}
	return true
}

// siftDown restores heap order from the root after a pop.
func (h *eventHeap) siftDown() {
	n := len(h.a)
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			return
		}
		// Find the smallest of up to four children.
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.a[c].before(&h.a[min]) {
				min = c
			}
		}
		if !h.a[min].before(&h.a[i]) {
			return
		}
		h.a[i], h.a[min] = h.a[min], h.a[i]
		i = min
	}
}

// Engine is a discrete-event scheduler. Its event queue (eventHeap) is
// a calendar ring for events due within ringSize cycles beside a 4-ary
// heap for the rest; both dispatch in one (time, seq) order.
// The zero value is not usable; call NewEngine.
type Engine struct {
	events  eventHeap // first, so &e.events is e and needs no spill slot of its own
	now     Time
	seq     uint64
	horizon Time // active Run's bound; valid while events dispatch
	stopped bool
	procs   []*Process // every spawned process, for Stop to unwind
	cur     *Process   // the process of the event dispatched last; nil for a plain callback
	probed  uint64     // spinning wakes a probe handled without a resume
	resumes uint64     // coroutine resumes Run made
	selfs   uint64     // coroutine wakes next returned inline
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{events: eventHeap{slab: make([]ringEvent, 1)}}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Scheduled reports the number of events ever scheduled on this
// engine — the denominator for per-event cost accounting (the
// steady-state allocation pins divide by it).
func (e *Engine) Scheduled() uint64 { return e.seq }

// EngineCounters is a snapshot of what engines did since construction.
// ShardSet.Counters sums it over shards.
type EngineCounters struct {
	// Scheduled is the events ever scheduled (Engine.Scheduled).
	Scheduled uint64
	// Probed is the wakes of spinning processes (Process.Spin) handled
	// by running their probe instead of resuming them: idle polls,
	// cache hits and the ends of a miss's bus transfers alike, counting
	// a wake whose probe parks the process for a bus grant.
	Probed uint64
	// Resumes is the coroutine resumes Run made, two coroutine
	// switches each.
	Resumes uint64
	// SelfWakes is the coroutine wakes a parking process's own dispatch
	// loop (Engine.next) returned inline, with no switch.
	SelfWakes uint64
}

// Counters returns the engine's counters.
func (e *Engine) Counters() EngineCounters {
	return EngineCounters{Scheduled: e.seq, Probed: e.probed, Resumes: e.resumes, SelfWakes: e.selfs}
}

// Schedule runs fn after delay cycles. A delay of zero runs fn after
// all work at the current instant that was scheduled earlier.
func (e *Engine) Schedule(delay Time, fn func()) {
	e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at absolute time at, which must not precede Now.
func (e *Engine) ScheduleAt(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", at, e.now))
	}
	e.seq++
	e.events.push(event{at: at, seq: e.seq, fn: fn})
}

// scheduleProc enqueues a wake of p: resuming its coroutine when fn is
// nil, else running fn as its step. Neither allocates.
func (e *Engine) scheduleProc(delay Time, p *Process, fn func()) {
	e.seq++
	e.events.push(event{at: e.now + delay, seq: e.seq, fn: fn, p: p})
}

// Run executes events until the event queue is empty or the clock would
// pass horizon. It returns the time of the last executed event.
// Processes blocked on conditions when the queue drains remain parked;
// call Stop to unwind them. A panic in a process body, a driven step
// or a probe comes back out of Run as a *ProcessPanic.
//
// Run resumes a process by calling its coroutine's next. The process
// keeps dispatching events itself when it next parks (Engine.next), so
// it switches back here only when another process's wake comes first:
// a foreign wake costs two coroutine switches, a self wake none, and
// the wake of a spinning process whose probe continues none either.
// Run also grows the calendar ring's slab when a near event found it
// full: here, on the caller's goroutine, rather than on a process's
// coroutine stack.
func (e *Engine) Run(horizon Time) Time {
	if e.stopped {
		panic("sim: Run after Stop")
	}
	e.horizon = horizon
	defer e.recoverStep()
	for {
		top := e.events.min()
		if top == nil || top.at > horizon {
			break
		}
		if p := top.p; p != nil && top.fn == nil && p.spin != nil && e.probe() {
			continue
		}
		if e.events.short {
			e.events.grow()
		}
		ev := e.events.pop()
		e.now, e.cur = ev.at, ev.p
		if ev.p == nil {
			ev.fn()
			continue
		}
		ev.p.waking = false
		if ev.fn != nil {
			ev.fn()
			continue
		}
		e.resumes++
		ev.p.next() // a finished process's next returns at once
	}
	return e.now
}

// recoverStep re-raises a panic in a driven step or a probe that Run
// dispatched as a *ProcessPanic naming the step's process or the
// spinning one. A coroutine's panic already is one, which panicked
// passes on as it is; a plain callback's passes through untouched, as
// it has no process to name.
func (e *Engine) recoverStep() {
	if e.cur == nil {
		return
	}
	if r := recover(); r != nil {
		panic(e.panicked(e.cur, r))
	}
}

// probe runs the probe of the spinning process whose plain wake is the
// earliest event, at that wake's time. When the probe continues, the
// wake is re-armed with the next sequence number — the same key Sleep
// would give it at this instant — and probe reports true; when it
// parks, the wake is popped and nothing re-armed, as a coroutine
// queueing for a bus schedules nothing, and probe reports true too.
// When the probe resumes, the wake stays first for the caller to pop,
// and probe reports false.
func (e *Engine) probe() bool {
	top := e.events.min()
	p := top.p
	e.now, e.cur = top.at, p
	delay, resume := p.spin.Probe()
	if resume {
		return false
	}
	if delay == Parked {
		e.events.pop()
		p.waking = false
	} else {
		e.seq++
		if !e.events.rearm(delay, e.seq) {
			e.events.siftDown()
		}
	}
	e.probed++
	return true
}

// RunAll executes events until none remain.
func (e *Engine) RunAll() Time { return e.Run(Forever) }

// nextAt returns the time of the earliest pending event, or Forever
// when the queue is empty. The sharded coordinator reads it at epoch
// barriers to size the next conservative window.
func (e *Engine) nextAt() Time {
	if top := e.events.min(); top != nil {
		return top.at
	}
	return Forever
}

// pushCross enqueues an event with an externally assigned sequence
// number. The sharded coordinator pushes cross-shard events with
// sequence numbers above every engine-local one (shard.go's class-1
// band, class1Base+Key), so the merged (time, seq) order is identical
// for any shard count. Such a number is not in push order, so the
// event goes on the heap, never into a ring FIFO.
func (e *Engine) pushCross(at Time, seq uint64, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: cross event at %d before now %d", at, e.now))
	}
	e.events.push(event{at: at, seq: seq, fn: fn})
}

// advanceTo moves the clock forward to t without dispatching events.
// The sharded coordinator aligns every shard's clock to the global
// maximum after a run, so Now-based telemetry (busy trackers, trace
// spans) reads one consistent end time.
func (e *Engine) advanceTo(t Time) {
	if t > e.now {
		e.now = t
	}
}

// Stop unwinds every parked process and marks the engine dead. It must
// be called after Run returns (never from inside the simulation). Safe
// to call more than once.
func (e *Engine) Stop() {
	if e.stopped {
		return
	}
	e.stopped = true
	// stop makes a parked process's yield return false, so park panics
	// errAborted and the coroutine's unwind absorbs it. A process that
	// never ran or has finished just ends.
	for _, p := range e.procs {
		p.stop()
	}
	e.procs = nil
}
