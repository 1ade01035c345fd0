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
// therefore produce identical schedules.
//
// An Engine is not safe for concurrent use from outside the simulation;
// all interaction must happen from event callbacks or processes.
// Distinct Engines are fully independent, so whole simulations may run
// concurrently on separate goroutines (the harness exploits this).
package sim

import "fmt"

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
	fn  func()   // used when p == nil
	p   *Process // wake this process instead of calling fn
}

// before reports whether e fires before o in deterministic
// (time, sequence) order.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a hand-rolled 4-ary min-heap. Compared with
// container/heap it stores events inline (no interface{} boxing, so
// push/pop allocate nothing once the slice has warmed up) and trades
// deeper comparisons for shallower trees: a 4-ary heap halves the
// depth of a binary heap, which wins on the pop-heavy workload of a
// discrete-event loop where most inserted times are near the minimum.
type eventHeap struct {
	a []event
}

func (h *eventHeap) len() int { return len(h.a) }

// push inserts ev, restoring heap order by sifting up.
func (h *eventHeap) push(ev event) {
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

// pop removes and returns the minimum event. The caller must ensure
// the heap is non-empty.
func (h *eventHeap) pop() event {
	top := h.a[0]
	n := len(h.a) - 1
	h.a[0] = h.a[n]
	h.a[n] = event{} // drop fn/p references so finished events can be collected
	h.a = h.a[:n]
	h.siftDown()
	return top
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

// Engine is a discrete-event scheduler.
// The zero value is not usable; call NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	horizon Time // active Run's bound; valid while events dispatch
	events  eventHeap
	stopped bool
	procs   []*Process // every spawned process, for Stop to unwind
	probed  uint64     // spinning wakes a probe handled without a resume
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of scheduled events.
func (e *Engine) Pending() int { return e.events.len() }

// Scheduled reports the number of events ever scheduled on this
// engine — the denominator for per-event cost accounting (the
// steady-state allocation pins divide by it).
func (e *Engine) Scheduled() uint64 { return e.seq }

// Probed reports how many wakes of spinning processes (Process.Spin)
// the engine handled by running their probe instead of resuming them.
func (e *Engine) Probed() uint64 { return e.probed }

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

// scheduleProc enqueues a direct process-wake event: dispatching it
// resumes p without allocating a closure.
func (e *Engine) scheduleProc(delay Time, p *Process) {
	e.seq++
	e.events.push(event{at: e.now + delay, seq: e.seq, p: p})
}

// Run executes events until the event heap is empty or the clock would
// pass horizon. It returns the time of the last executed event.
// Processes blocked on conditions when the heap drains remain parked;
// call Stop to unwind them. A panic in a process body comes back out of
// Run as a *ProcessPanic.
//
// Run resumes a process by calling its coroutine's next. The process
// keeps dispatching events itself when it next parks (Engine.next), so
// it switches back here only when another process's wake comes first:
// a foreign wake costs two coroutine switches, a self wake none, and
// the wake of a spinning process whose probe continues none either.
func (e *Engine) Run(horizon Time) Time {
	if e.stopped {
		panic("sim: Run after Stop")
	}
	e.horizon = horizon
	for e.events.len() > 0 && e.events.a[0].at <= horizon {
		if p := e.events.a[0].p; p != nil && p.spin != nil && e.probe() {
			continue
		}
		ev := e.events.pop()
		e.now = ev.at
		if ev.p == nil {
			ev.fn()
			continue
		}
		ev.p.waking = false
		ev.p.next() // a finished process's next returns at once
	}
	return e.now
}

// probe runs the probe of the spinning process whose wake is the
// earliest event, at that wake's time. When the probe continues, the
// wake is re-armed in place with the next sequence number — the same
// key Sleep would give it at this instant — and probe reports true.
// When the probe resumes, the wake stays at the top for the caller to
// pop, and probe reports false.
func (e *Engine) probe() bool {
	top := &e.events.a[0]
	e.now = top.at
	delay, resume := top.p.spin.Probe()
	if resume {
		return false
	}
	e.seq++
	top.at, top.seq = e.now+delay, e.seq
	e.events.siftDown()
	e.probed++
	return true
}

// RunAll executes events until none remain.
func (e *Engine) RunAll() Time { return e.Run(Forever) }

// nextAt returns the time of the earliest pending event, or Forever
// when the heap is empty. The sharded coordinator reads it at epoch
// barriers to size the next conservative window.
func (e *Engine) nextAt() Time {
	if e.events.len() == 0 {
		return Forever
	}
	return e.events.a[0].at
}

// pushCross enqueues an event with an externally assigned sequence
// number. The sharded coordinator materialises cross-shard events with
// ranks above every engine-local sequence (shard.go's class-1 band),
// so the merged (time, seq) order is identical for any shard count.
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
