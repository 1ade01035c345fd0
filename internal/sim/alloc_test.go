package sim

import (
	"math"
	"testing"
)

// Alloc-regression tests: the engine and stats hot paths must stay
// allocation-free in steady state so the garbage collector never
// shows up in experiment wall-clock. testing.AllocsPerRun fails these
// loudly if boxing or closure allocation creeps back in.

func TestScheduleDispatchZeroAlloc(t *testing.T) {
	// A near/far mix: events due on the calendar ring (0, 1 and 127
	// cycles out) and on the heap behind it (128 and 1000 cycles out).
	e := NewEngine()
	n := 0
	fn := func() { n++ }
	delays := []Time{0, 1, ringSize - 1, ringSize, 1000}
	round := func() {
		for _, d := range delays {
			e.Schedule(d, fn)
		}
		e.RunAll()
	}
	// Warm the ring's slab and the heap's backing slice so growth is
	// excluded.
	for i := 0; i < 64; i++ {
		e.Schedule(Time(i), fn)
		e.Schedule(ringSize+Time(i), fn)
	}
	e.RunAll()
	round()
	allocs := testing.AllocsPerRun(1000, round)
	if allocs != 0 {
		t.Errorf("Schedule+dispatch allocates %.1f objects per %d events, want 0", allocs, len(delays))
	}
}

func TestProcessWakeZeroAlloc(t *testing.T) {
	// A parked process's wake is a direct event (no closure); verify a
	// full sleep/wake cycle allocates nothing once the process exists.
	e := NewEngine()
	release := new(Cond)
	e.Spawn("sleeper", func(p *Process) {
		for {
			release.Wait(p)
			p.Sleep(1)
		}
	})
	e.RunAll()
	allocs := testing.AllocsPerRun(1000, func() {
		release.Signal()
		e.RunAll()
	})
	// Cond.Wait re-appends the process to the waiters slice; after
	// warm-up that append reuses capacity, so the whole cycle must be
	// allocation-free.
	if allocs != 0 {
		t.Errorf("process sleep/wake cycle allocates %.1f objects/op, want 0", allocs)
	}
	e.Stop()
}

func TestProcessSwitchZeroAlloc(t *testing.T) {
	// Every park finds the other process's wake first, so each round
	// passes control through Run twice (the foreign-wake path).
	e := NewEngine()
	spawnAlternating(e, math.MaxInt)
	e.Run(8)
	allocs := testing.AllocsPerRun(1000, func() {
		e.Run(e.Now() + 1)
	})
	if allocs != 0 {
		t.Errorf("alternating process switch allocates %.1f objects/op, want 0", allocs)
	}
	e.Stop()
}

func TestCounterAddZeroAlloc(t *testing.T) {
	s := NewStats()
	c := s.Counter("x.cycles")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(7)
		c.Inc()
	})
	if allocs != 0 {
		t.Errorf("Counter.Add allocates %.1f objects/op, want 0", allocs)
	}
}

func TestBusyTrackerZeroAlloc(t *testing.T) {
	s := NewStats()
	b := s.Busy("bus")
	allocs := testing.AllocsPerRun(1000, func() {
		b.AddBusy(3)
	})
	if allocs != 0 {
		t.Errorf("BusyTracker ops allocate %.1f objects/op, want 0", allocs)
	}
}
