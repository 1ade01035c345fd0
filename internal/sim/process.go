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

// Process is a cooperative simulated thread of control, run as a stdlib
// coroutine (iter.Pull). Exactly one process (or event callback)
// executes at a time; a process gives up control by sleeping or waiting
// on a Cond, and the engine resumes it when its wake event fires.
type Process struct {
	eng  *Engine
	name string

	next   func() (struct{}, bool) // Run resumes the coroutine
	stop   func()                  // Stop unwinds the coroutine
	yield  func(struct{}) bool     // the coroutine suspends back to Run
	waking bool                    // a wake event is already scheduled
	spin   Spinner                 // non-nil while parked in Spin
}

// Spinner is the engine-side half of a process's idle loop (see
// Process.Spin).
type Spinner interface {
	// Probe runs at each wake of the spinning process, at the wake's
	// own (time, seq) position, without resuming the process. It
	// returns resume false to re-arm the wake delay cycles later —
	// what Sleep(delay) would do at this instant — or resume true to
	// resume the process at this wake. A probe that resumes must change
	// nothing: Engine.next may run it, leave the wake for Run, and Run
	// runs it again. Probe runs on the stack of whoever is dispatching
	// (Run, or another process parking on the same engine), so a panic
	// in it surfaces there.
	Probe() (delay Time, resume bool)
}

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
	p.scheduleWake(0)
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
	panic(&ProcessPanic{Process: p.name, At: p.eng.now, Value: r, Stack: debug.Stack()})
}

// Name returns the process name given at Spawn.
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

// scheduleWake arranges for the process to resume after delay cycles.
// It is idempotent per park: a second wake for the same park is a bug.
// The wake is a direct process event, not a closure — waking a process
// allocates nothing and dispatches without an indirect func call.
func (p *Process) scheduleWake(delay Time) {
	if p.waking {
		panic(fmt.Sprintf("sim: double wake of process %q", p.name))
	}
	p.waking = true
	p.eng.scheduleProc(delay, p)
}

// next dispatches events in (time, seq) order for the parking process
// self, without leaving its coroutine: fn events and the probes of
// spinning processes run inline, and when self's own wake comes first
// next pops it and returns true, so self continues with no switch. It
// returns false, leaving the event queued for Run, at another
// process's wake, at the horizon, or when the queue drains. The pops are
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
		if top.p != nil {
			if top.p.spin != nil && e.probe() {
				continue
			}
			if e.events.min().p != self {
				return false
			}
		}
		ev := e.events.pop()
		e.now = ev.at
		if ev.p == nil {
			ev.fn()
			continue
		}
		self.waking = false
		return true
	}
}

// Spin parks the process in an idle loop run by the engine: its wake
// fires first cycles from now, and at each wake the engine calls
// s.Probe in place of resuming the process, re-arming the wake for as
// long as the probe continues. Spin returns at the wake whose probe
// resumes. Every wake takes the (time, seq) key the equivalent Sleep
// loop would, so the schedule is identical to the process sleeping
// through each iteration itself; the probe must therefore do exactly
// what that iteration would, with no simulated operation of its own.
func (p *Process) Spin(first Time, s Spinner) {
	p.spin = s
	p.scheduleWake(first)
	p.park()
	p.spin = nil
}

// Sleep suspends the process for d cycles. Sleep(0) yields to events
// scheduled earlier at the current instant and resumes in order.
func (p *Process) Sleep(d Time) {
	p.scheduleWake(d)
	p.park()
}
