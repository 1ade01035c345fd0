package sim

import (
	"errors"
	"math"
	"runtime"
	"testing"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(10, func() { got = append(got, 2) })
	e.Schedule(5, func() { got = append(got, 1) })
	e.Schedule(10, func() { got = append(got, 3) }) // same time, later seq
	e.RunAll()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %d, want 10", e.Now())
	}
}

func TestScheduleZeroDelayRunsAtSameTime(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(7, func() {
		e.Schedule(0, func() { at = e.Now() })
	})
	e.RunAll()
	if at != 7 {
		t.Fatalf("zero-delay event ran at %d, want 7", at)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.ScheduleAt(5, func() {})
	})
	e.RunAll()
}

func TestRunHorizon(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(5, func() { ran++ })
	e.Schedule(50, func() { ran++ })
	e.Run(10)
	if ran != 1 {
		t.Fatalf("ran %d events before horizon, want 1", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.RunAll()
	if ran != 2 {
		t.Fatalf("ran %d events total, want 2", ran)
	}
}

func TestProcessSleep(t *testing.T) {
	e := NewEngine()
	var trace []Time
	e.Spawn("sleeper", func(p *Process) {
		trace = append(trace, p.Now())
		p.Sleep(100)
		trace = append(trace, p.Now())
		p.Sleep(50)
		trace = append(trace, p.Now())
	})
	e.RunAll()
	want := []Time{0, 100, 150}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestProcessInterleavingDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var order []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Spawn(name, func(p *Process) {
				for i := 0; i < 3; i++ {
					order = append(order, name)
					p.Sleep(10)
				}
			})
		}
		e.RunAll()
		return order
	}
	first := run()
	for trial := 0; trial < 20; trial++ {
		again := run()
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", first, again)
			}
		}
	}
}

func TestCondSignalFIFO(t *testing.T) {
	e := NewEngine()
	c := NewCond()
	var order []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		e.Spawn(name, func(p *Process) {
			c.Wait(p)
			order = append(order, name)
		})
	}
	e.Spawn("signaler", func(p *Process) {
		p.Sleep(10)
		if c.Waiting() != 3 {
			t.Errorf("Waiting = %d, want 3", c.Waiting())
		}
		c.Signal()
		p.Sleep(10)
		c.Broadcast()
	})
	e.RunAll()
	want := []string{"w1", "w2", "w3"}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestStopUnwindsParkedProcesses(t *testing.T) {
	e := NewEngine()
	c := NewCond()
	for i := 0; i < 5; i++ {
		e.Spawn("stuck", func(p *Process) {
			c.Wait(p) // never signalled
		})
	}
	e.RunAll()
	e.Stop() // must not hang
	e.Stop() // idempotent
}

func TestStatsCounters(t *testing.T) {
	s := NewStats()
	s.Inc("x")
	s.Add("x", 4)
	s.Inc("y")
	if s.Get("x") != 5 || s.Get("y") != 1 || s.Get("zero") != 0 {
		t.Fatalf("counters wrong: x=%d y=%d", s.Get("x"), s.Get("y"))
	}
	names := s.Counters()
	if len(names) != 2 || names[0] != "x" || names[1] != "y" {
		t.Fatalf("Counters = %v", names)
	}
}

func TestBusyTracker(t *testing.T) {
	s := NewStats()
	b := s.Busy("bus")
	b.AddBusy(20)
	b.AddBusy(5)
	if b.Total() != 25 {
		t.Fatalf("Total = %d, want 25", b.Total())
	}
	if s.Busy("bus") != b {
		t.Fatal("Busy does not intern its tracker")
	}
}

func TestSpawnManyProcessesStress(t *testing.T) {
	e := NewEngine()
	sum := 0
	for i := 0; i < 200; i++ {
		i := i
		e.Spawn("p", func(p *Process) {
			p.Sleep(Time(i % 17))
			sum++
		})
	}
	e.RunAll()
	if sum != 200 {
		t.Fatalf("sum = %d, want 200", sum)
	}
	e.Stop()
}

func TestProcessSleepZeroYields(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("a", func(p *Process) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	e.Spawn("b", func(p *Process) {
		order = append(order, "b1")
		p.Sleep(0)
		order = append(order, "b2")
	})
	e.RunAll()
	want := []string{"a1", "b1", "a2", "b2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// recoverRun calls run and returns the value it panicked with, or nil.
func recoverRun(run func()) (r any) {
	defer func() { r = recover() }()
	run()
	return nil
}

// checkProcessPanic asserts that r is the ProcessPanic of process name
// at cycle at, carrying value.
func checkProcessPanic(t *testing.T, r any, name string, at Time, value any) {
	t.Helper()
	pp, ok := r.(*ProcessPanic)
	if !ok {
		t.Fatalf("Run raised %#v, want a *ProcessPanic", r)
	}
	if pp.Process != name || pp.At != at || pp.Value != value {
		t.Fatalf("ProcessPanic{%q, %d, %v}, want {%q, %d, %v}",
			pp.Process, pp.At, pp.Value, name, at, value)
	}
}

func TestProcessPanicReachesRunCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	boom := errors.New("boom")
	e := NewEngine()
	c := NewCond()
	e.Spawn("node0.app", func(p *Process) { c.Wait(p) })
	e.Spawn("node3.app", func(p *Process) {
		p.Sleep(42)
		panic(boom)
	})
	checkProcessPanic(t, recoverRun(func() { e.RunAll() }), "node3.app", 42, boom)
	e.Stop() // must not hang
}

func TestShardProcessPanicReachesRunCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	boom := errors.New("boom")
	s := NewShardSet(4, 2, 10)
	for n := 0; n < 4; n++ {
		c := NewCond()
		s.Engine(n).Spawn("parked", func(p *Process) { c.Wait(p) })
		s.Engine(n).Spawn("ticker", func(p *Process) {
			for {
				p.Sleep(3)
			}
		})
	}
	s.Engine(3).Spawn("nic3.recv", func(p *Process) {
		p.Sleep(25)
		panic(boom)
	})
	checkProcessPanic(t, recoverRun(func() { s.Run(1000) }), "nic3.recv", 25, boom)
	s.Stop() // must not hang
}

func TestStopLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	c := NewCond()
	e.Spawn("finished", func(p *Process) { p.Sleep(1) })
	e.Spawn("cond", func(p *Process) { c.Wait(p) })
	e.Spawn("sleeper", func(p *Process) { p.Sleep(1000) })
	e.Spawn("spinner", func(p *Process) {
		p.Spin(1, &countdown{n: math.MaxInt})
		t.Error("spinner resumed")
	})
	e.Run(10)
	if e.Probed() != 10 {
		t.Errorf("probed %d spinner wakes by cycle 10, want 10", e.Probed())
	}
	e.Spawn("unrun", func(p *Process) { t.Error("unrun process ran") })
	e.Stop()
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Stop, want the baseline %d", n, base)
	}
}
