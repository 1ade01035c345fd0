package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// errAborted unwinds a parked process's coroutine when the engine stops.
type errAborted struct{}

// ProcessPanic is the value Run re-panics with, on its caller's
// goroutine, when a process body panics: the process name (which names
// the node, e.g. "node3.app"), the cycle, and the original value.
type ProcessPanic struct {
	Process string
	At      Time
	Value   any
	// Stack is the process's stack at the panic: the re-raised panic's
	// own trace starts at Run and no longer shows the panic site.
	Stack []byte
}

func (pp *ProcessPanic) Error() string {
	return fmt.Sprintf("sim: process %q panicked at cycle %d: %v\n\n%s", pp.Process, pp.At, pp.Value, pp.Stack)
}

// Process is a cooperative simulated thread of control. Exactly one
// process (or event callback) executes at a time. A process made by
// Spawn runs as a stdlib coroutine (iter.Pull): it gives up control by
// sleeping or waiting on a Cond, and the engine resumes it when its
// wake event fires. A driven process (Drive) has no coroutine: its
// body is a state machine of prebuilt callbacks, each a step the
// engine runs at the wake the coroutine would have resumed at.
type Process struct {
	eng  *Engine
	name string

	next   func() (struct{}, bool) // Run resumes the coroutine; nil for a driven process
	stop   func()                  // Stop unwinds the coroutine
	yield  func(struct{}) bool     // the coroutine suspends back to Run
	waking bool                    // a wake event is already scheduled
	spin   Spinner                 // non-nil while parked in Spin
}

// Spinner is the engine-side half of a loop a process hands to the
// engine (see Process.Spin): the messaging layer's idle polls, and the
// processor's bus accesses — a load or store range, one word's miss,
// or a run of uncached device loads.
type Spinner interface {
	// Probe runs at each plain wake of the spinning process, at the
	// wake's own (time, seq) position, without resuming the process.
	// It returns resume false to re-arm the wake delay cycles later —
	// what Sleep(delay) would do at this instant — or with delay Parked
	// when the process has queued for a grant rather than for a time:
	// the wake is then dropped, and the grant's driven step (see
	// Drive) arranges the process's next plain wake (After with a nil
	// step). It returns resume true to resume the process at this wake.
	// A probe may run its own process's bus transactions as such steps.
	// A probe that resumes must be idempotent: Engine.next may run it,
	// leave the wake for Run, and Run runs it again, so what it did at
	// this wake it must not redo. Probe runs on the stack of whoever is
	// dispatching (Run, or a process parking on the same engine); a
	// panic in it comes out of Run as a *ProcessPanic naming the
	// spinning process.
	Probe() (delay Time, resume bool)
}

// Parked is the delay a Spinner's probe returns, or Spin is first
// given, when the process waits for a grant — a FIFOMutex, as a bus
// is — rather than for a time: no wake is armed until the grant's step
// arms one.
const Parked Time = 1<<64 - 1

// Spawn creates a process running body and schedules its first
// activation at the current time. The body runs only when Run resumes
// it, never concurrently with the engine or another process.
func (e *Engine) Spawn(name string, body func(p *Process)) *Process {
	p := &Process{eng: e, name: name}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.unwind()
		body(p)
	})
	e.procs = append(e.procs, p)
	p.wake(0, nil)
	return p
}

// Drive creates a driven process named name and schedules first as its
// first step at the current time, the activation Spawn schedules for a
// coroutine. A step must not block: it arranges the process's next wake
// (After, Cond.Await, FIFOMutex.Acquire), naming the callback to run
// then, and returns. Each wake takes the (time, seq) key the same wait
// in a coroutine would, so a driven body keeps a coroutine's schedule
// without its stack or its two switches per wake. A panic in a step
// comes out of Run as a *ProcessPanic naming the process.
func (e *Engine) Drive(name string, first func()) *Process {
	p := &Process{eng: e, name: name}
	p.wake(0, first)
	return p
}

// unwind ends the coroutine after its body panics. Stop's errAborted
// ends it quietly; any other panic is wrapped in a ProcessPanic, which
// iter.Pull re-raises from next on the goroutine that called Run.
func (p *Process) unwind() {
	r := recover()
	if r == nil {
		return
	}
	if _, ok := r.(errAborted); ok {
		return
	}
	panic(p.eng.panicked(p, r))
}

// panicked wraps r, raised while self was running, as a ProcessPanic.
// It names the process whose event was dispatched last — a driven
// step that self ran inline while parking, or self.
func (e *Engine) panicked(self *Process, r any) *ProcessPanic {
	if pp, ok := r.(*ProcessPanic); ok {
		return pp
	}
	if e.cur != nil {
		self = e.cur
	}
	return &ProcessPanic{Process: self.name, At: e.now, Value: r, Stack: debug.Stack()}
}

// Name returns the process name given at Spawn or Drive.
func (p *Process) Name() string { return p.name }

// Engine returns the engine the process runs on.
func (p *Process) Engine() *Engine { return p.eng }

// Now returns the current simulation time.
func (p *Process) Now() Time { return p.eng.now }

// park gives up control and suspends until woken. The caller must have
// arranged a wake (scheduleWake or a Cond). park first dispatches due
// events itself (Engine.next): when this process's own wake comes
// first — the common case for short sleeps — it returns without any
// coroutine switch. Otherwise it yields to Run, which pops the next
// wake and resumes that process. When Stop ends the coroutine instead,
// yield returns false and park unwinds the body with errAborted.
func (p *Process) park() {
	if !p.eng.next(p) && !p.yield(struct{}{}) {
		panic(errAborted{})
	}
}

// waiter is what a Cond or FIFOMutex wakes: process p, resumed when fn
// is nil, or else fn run as p's step.
type waiter struct {
	p  *Process
	fn func()
}

// wake arranges p's next wake after delay cycles: resuming its
// coroutine when fn is nil, else running fn as its step. A process has
// one wake pending at a time; a second is a bug. A coroutine's wake is
// a direct process event, not a closure, and a step is a prebuilt
// callback, so waking allocates nothing.
func (p *Process) wake(delay Time, fn func()) {
	if p.waking {
		panic(fmt.Sprintf("sim: double wake of process %q", p.name))
	}
	p.waking = true
	p.eng.scheduleProc(delay, p, fn)
}

// After runs fn as driven process p's next step delay cycles from now:
// a driven Sleep. After(0, fn) runs fn after the work already scheduled
// at the current instant. A step run for a spinning coroutine passes a
// nil fn: its wake is then a plain one, which the coroutine's probe
// handles.
func (p *Process) After(delay Time, fn func()) { p.wake(delay, fn) }

// next dispatches events in (time, seq) order for the parking process
// self, without leaving its coroutine: fn events — callbacks and driven
// steps — and the probes of spinning processes run inline, and when
// self's own wake comes first next pops it and returns true (a self
// wake), so self continues with no switch. It returns false, leaving
// the event queued for Run, at another coroutine's wake, at the
// horizon, or when the queue drains. The pops are
// the ones Run would make, in the same order, so schedules are
// bit-identical to dispatching everything from Run.
func (e *Engine) next(self *Process) bool {
	for {
		top := e.events.min()
		if top == nil || top.at > e.horizon {
			return false
		}
		// The re-read of min (not a local copy of top.p) keeps next's
		// frame at its old size: fn events run on the parking process's
		// coroutine stack below this frame, and one more spill slot here
		// doubled enough stacks to add 1.2 MB on a 1024-node machine.
		if top.fn == nil {
			if top.p.spin != nil && e.probe() {
				continue
			}
			if e.events.min().p != self {
				return false
			}
		}
		ev := e.events.pop()
		e.now, e.cur = ev.at, ev.p
		if ev.fn != nil {
			if ev.p != nil {
				ev.p.waking = false
			}
			ev.fn()
			continue
		}
		self.waking = false
		e.selfs++
		return true
	}
}

// Spin parks the process in a loop run by the engine — an idle poll,
// or a cache access with its hits and misses: its wake fires first
// cycles from now (none is armed when first is Parked: the process has
// queued for a bus, and the grant's step arms it), and at each plain
// wake the engine calls s.Probe in place of resuming the process,
// re-arming the wake for as long as the probe continues. Spin returns
// at the wake whose probe resumes. Every wake takes the (time, seq) key
// the equivalent coroutine loop would — Sleep for a delay, a bus's
// FIFOMutex for a grant — so the schedule is identical to the process
// running each iteration itself; the probe must therefore do exactly
// what that iteration would, with any bus transaction of its own run
// as driven steps of the process.
func (p *Process) Spin(first Time, s Spinner) {
	p.spin = s
	if first != Parked {
		p.wake(first, nil)
	}
	p.park()
	p.spin = nil
}

// Sleep suspends the process for d cycles. Sleep(0) yields to events
// scheduled earlier at the current instant and resumes in order.
func (p *Process) Sleep(d Time) {
	p.wake(d, nil)
	p.park()
}
