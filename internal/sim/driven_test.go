package sim

import (
	"errors"
	"runtime"
	"testing"
)

// stamp is one point of a subject's progress: the clock and the
// events scheduled so far, which pins the (time, seq) of every wake.
type stamp struct {
	at    Time
	sched uint64
}

// drivenWorld runs the process subject installs on e against fixed
// contention: a coroutine contender sharing its mutex and a ticker
// signalling its cond. The subject records stamps through note.
func drivenWorld(t *testing.T, subject func(e *Engine, mu *FIFOMutex, c *Cond, note func())) ([]stamp, *Engine) {
	t.Helper()
	e := NewEngine()
	var mu FIFOMutex
	var c Cond
	var log []stamp
	note := func() { log = append(log, stamp{e.Now(), e.Scheduled()}) }
	e.Spawn("contender", func(p *Process) {
		for i := 0; i < 40; i++ {
			lock(&mu, p)
			p.Sleep(Time(2 + i%3))
			mu.Unlock()
			p.Sleep(1)
		}
	})
	subject(e, &mu, &c, note)
	e.Spawn("ticker", func(p *Process) {
		for i := 0; i < 60; i++ {
			p.Sleep(7)
			c.Signal()
		}
	})
	e.RunAll()
	return log, e
}

// drivenSubject is the state machine equivalent of the coroutine loop
// in TestDrivenStepsKeepCoroutineOrder.
type drivenSubject struct {
	p     *Process
	mu    *FIFOMutex
	c     *Cond
	note  func()
	step  func()
	i, at int
}

func (d *drivenSubject) run() {
	for {
		switch d.at {
		case 0:
			if d.i == 20 {
				return
			}
			d.at = 1
			if !d.mu.Acquire(d.p, d.step) {
				return
			}
		case 1:
			d.note()
			d.at = 2
			d.p.After(3, d.step)
			return
		case 2:
			d.mu.Unlock()
			d.at = 3
			d.c.Await(d.p, d.step)
			return
		case 3:
			d.note()
			d.at = 0
			d.i++
			d.p.After(Time((d.i-1)%5), d.step)
			return
		}
	}
}

// TestDrivenStepsKeepCoroutineOrder checks the driven-process contract:
// a state machine taking the same waits as a coroutine — Drive's first
// activation, FIFOMutex.Acquire, After, Cond.Await — wakes at the same
// (time, seq) keys, so the whole schedule is identical, and it resumes
// no coroutine.
func TestDrivenStepsKeepCoroutineOrder(t *testing.T) {
	want, ce := drivenWorld(t, func(e *Engine, mu *FIFOMutex, c *Cond, note func()) {
		e.Spawn("subject", func(p *Process) {
			for i := 0; i < 20; i++ {
				lock(mu, p)
				note()
				p.Sleep(3)
				mu.Unlock()
				c.Wait(p)
				note()
				p.Sleep(Time(i % 5))
			}
		})
	})
	got, de := drivenWorld(t, func(e *Engine, mu *FIFOMutex, c *Cond, note func()) {
		d := &drivenSubject{mu: mu, c: c, note: note}
		d.step = d.run
		d.p = e.Drive("subject", d.step)
	})
	if len(want) != 40 {
		t.Fatalf("coroutine subject logged %d stamps, want 40", len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("driven subject logged %d stamps, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stamp %d: driven %+v, coroutine %+v", i, got[i], want[i])
		}
	}
	if de.Scheduled() != ce.Scheduled() || de.Now() != ce.Now() {
		t.Fatalf("driven run ended at %d after %d events, coroutine run at %d after %d",
			de.Now(), de.Scheduled(), ce.Now(), ce.Scheduled())
	}
	dc, cc := de.Counters(), ce.Counters()
	if dc.Resumes+dc.SelfWakes >= cc.Resumes+cc.SelfWakes {
		t.Fatalf("driven run woke coroutines %d times, the coroutine run %d: the subject still counts",
			dc.Resumes+dc.SelfWakes, cc.Resumes+cc.SelfWakes)
	}
}

// TestDrivenStepPanicReachesRunCaller checks that a panic in a driven
// step comes out of Run as a *ProcessPanic naming the driven process
// and the cycle, whether Run dispatched the step or a parking
// coroutine ran it inline on its own stack, on a plain engine and on
// a sharded set with epoch workers.
func TestDrivenStepPanicReachesRunCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	boom := errors.New("boom")
	arm := func(e *Engine) {
		var p *Process
		p = e.Drive("node3.ni.recv", func() {
			p.After(42, func() { panic(boom) })
		})
	}
	t.Run("from Run", func(t *testing.T) {
		e := NewEngine()
		arm(e)
		checkProcessPanic(t, recoverRun(func() { e.RunAll() }), "node3.ni.recv", 42, boom)
		e.Stop()
	})
	t.Run("inline on a coroutine", func(t *testing.T) {
		e := NewEngine()
		e.Spawn("node3.app", func(p *Process) { p.Sleep(100) })
		arm(e)
		checkProcessPanic(t, recoverRun(func() { e.RunAll() }), "node3.ni.recv", 42, boom)
		if r := e.Counters().Resumes; r != 1 {
			t.Errorf("%d resumes, want 1: the step did not run on the app's stack", r)
		}
		e.Stop()
	})
	t.Run("sharded", func(t *testing.T) {
		s := NewShardSet(4, 2, 10)
		for n := 0; n < 4; n++ {
			s.Engine(n).Spawn("ticker", func(p *Process) {
				for {
					p.Sleep(3)
				}
			})
		}
		arm(s.Engine(3))
		checkProcessPanic(t, recoverRun(func() { s.Run(1000) }), "node3.ni.recv", 42, boom)
		s.Stop()
	})
}

// TestDrivenWakeZeroAlloc pins a driven process's waits — After,
// Cond.Await and FIFOMutex.Acquire with their prebuilt steps — at zero
// allocations per round once warm.
func TestDrivenWakeZeroAlloc(t *testing.T) {
	e := NewEngine()
	var mu FIFOMutex
	var c Cond
	d := &drivenSubject{mu: &mu, c: &c, note: func() {}}
	d.step = func() {
		if d.i == 20 {
			d.i = 0 // loop forever
		}
		d.run()
	}
	d.p = e.Drive("subject", d.step)
	e.Spawn("holder", func(p *Process) {
		for {
			lock(&mu, p)
			p.Sleep(5)
			mu.Unlock()
			c.Signal()
			p.Sleep(1)
		}
	})
	end := Time(0)
	round := func() {
		end += 200
		e.Run(end)
	}
	for i := 0; i < 10; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Errorf("driven waits allocate %.2f objects per round, want 0", allocs)
	}
	e.Stop()
}
