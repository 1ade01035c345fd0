package sim

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// pollLoop is the per-wake check of an idle loop shared by the Spin and
// the Sleep versions of spinWorkload: like the messaging layer's poll,
// it alternates two wake delays and ends once *ready reaches want.
type pollLoop struct {
	name  string
	note  func(string)
	ready *int
	want  int
	odd   bool // the next delay is the second of the pair
}

// step is one check at a wake: done when the loop should end (with no
// side effect), else the delay to the next wake.
func (l *pollLoop) step() (Time, bool) {
	if *l.ready >= l.want {
		return 0, true
	}
	l.note(l.name + " idle")
	l.odd = !l.odd
	if l.odd {
		return 2, false
	}
	return 3, false
}

// Probe implements Spinner.
func (l *pollLoop) Probe() (Time, bool) { return l.step() }

// spinWorkload loads e with two idle loops waiting on counters that
// callbacks bump at instants where the loops' wakes fall, plus a
// sleeper and callbacks tied to the same instants, and logs every
// dispatch with the engine's sequence counter. With spin the loops run
// as Spin probes; without, as the equivalent Sleep loop. The two logs
// must be equal.
func spinWorkload(e *Engine, log *[]string, spin bool) {
	note := func(what string) {
		*log = append(*log, fmt.Sprintf("%d %s seq=%d", e.Now(), what, e.Scheduled()))
	}
	ready := make([]int, 2)
	for i := range ready {
		e.Spawn(fmt.Sprintf("poller%d", i), func(p *Process) {
			for round := 1; round <= 4; round++ {
				l := &pollLoop{name: p.Name(), note: note, ready: &ready[i], want: round}
				first := Time(3 + i)
				if spin {
					p.Spin(first, l)
				} else {
					p.Sleep(first)
					for {
						d, done := l.step()
						if done {
							break
						}
						p.Sleep(d)
					}
				}
				note(fmt.Sprintf("%s resumed round %d", p.Name(), round))
				p.Sleep(Time(i))
			}
		})
	}
	e.Spawn("sleeper", func(p *Process) {
		for k := 0; k < 40; k++ {
			p.Sleep(5)
			note("sleeper")
		}
	})
	for k := 1; k <= 8; k++ {
		at := Time(17 * k)
		e.ScheduleAt(at, func() {
			ready[k%2]++
			note(fmt.Sprintf("bump %d", k%2))
			e.Schedule(0, func() { note("cb+0") })
		})
	}
}

// TestSpinMatchesSleepLoop pins Spin's contract: a loop run as engine
// probes dispatches exactly the (time, seq) sequence of the same loop
// sleeping through every iteration — fn events, other processes and
// the other spinner at the probe instants included — on a bare engine,
// on a one-shard Forever ShardSet, and on every shard of a 4-shard set
// cut into short epochs (so horizons fall mid-spin). Only the
// Spin version probes.
func TestSpinMatchesSleepLoop(t *testing.T) {
	var want []string
	ref := NewEngine()
	spinWorkload(ref, &want, false)
	ref.RunAll()
	if len(want) < 100 || ref.Counters().Probed != 0 {
		t.Fatalf("sleep loop logged %d dispatches with %d probes", len(want), ref.Counters().Probed)
	}

	check := func(name string, e *Engine, got []string) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s: dispatch order diverges\n  sleep: %q\n  spin:  %q", name, want, got)
		}
		if e.Scheduled() != ref.Scheduled() || e.Now() != ref.Now() {
			t.Errorf("%s: scheduled %d events, ended at %d; sleep loop %d, %d", name, e.Scheduled(), e.Now(), ref.Scheduled(), ref.Now())
		}
		if e.Counters().Probed == 0 {
			t.Errorf("%s: no wake ran as a probe", name)
		}
	}

	var got []string
	e := NewEngine()
	spinWorkload(e, &got, true)
	e.RunAll()
	check("engine", e, got)
	e.Stop()

	one := NewShardSet(4, 1, Forever)
	got = nil
	spinWorkload(one.Engine(0), &got, true)
	one.Run(Forever)
	check("one shard", one.Engine(0), got)
	one.Stop()

	four := NewShardSet(4, 4, 7)
	logs := make([][]string, 4)
	for i := range logs {
		spinWorkload(four.Engine(i), &logs[i], true)
	}
	four.Run(Forever)
	for i := range logs {
		check(fmt.Sprintf("shard %d of 4", i), four.Engine(i), logs[i])
	}
	if four.Counters().Probed != 4*four.Engine(0).Counters().Probed {
		t.Errorf("ShardSet.Counters().Probed = %d, want 4 x %d", four.Counters().Probed, four.Engine(0).Counters().Probed)
	}
	four.Stop()
}

// countdown is a Spinner that continues n times, one cycle apart.
type countdown struct{ n int }

func (c *countdown) Probe() (Time, bool) {
	if c.n == 0 {
		return 0, true
	}
	c.n--
	return 1, false
}

func TestSpinZeroAlloc(t *testing.T) {
	// A spinning process beside a sleeping one, so probes run from Run
	// and from the sleeper's park (Engine.next) alike.
	e := NewEngine()
	c := &countdown{n: math.MaxInt}
	e.Spawn("spinner", func(p *Process) { p.Spin(1, c) })
	e.Spawn("sleeper", func(p *Process) {
		for {
			p.Sleep(3)
		}
	})
	e.Run(8)
	allocs := testing.AllocsPerRun(1000, func() {
		e.Run(e.Now() + 1)
	})
	if allocs != 0 {
		t.Errorf("spin probe allocates %.1f objects/op, want 0", allocs)
	}
	e.Stop()
}

// BenchmarkSpinProbe is the cost of one idle-loop iteration run as an
// engine probe: pop the wake, call Probe, re-arm in place.
func BenchmarkSpinProbe(b *testing.B) {
	e := NewEngine()
	e.Spawn("spinner", func(p *Process) { p.Spin(1, &countdown{n: b.N}) })
	b.ReportAllocs()
	b.ResetTimer()
	e.RunAll()
	b.StopTimer()
	if e.Counters().Probed != uint64(b.N) {
		b.Fatalf("probed %d wakes, want %d", e.Counters().Probed, b.N)
	}
	e.Stop()
}

// pollPair is a Spinner that re-arms alternately 1 and 4 cycles out —
// the poll loop's compute step and its cache-hit load — n times.
type pollPair struct {
	n   int
	odd bool
}

func (c *pollPair) Probe() (Time, bool) {
	if c.n == 0 {
		return 0, true
	}
	c.n--
	c.odd = !c.odd
	if c.odd {
		return 1, false
	}
	return 4, false
}

// BenchmarkSpinProbe16 is the cost of one probe among 16 spinners, the
// idle population of a 16-node machine polling its queues: each
// re-arm lands among 15 other pending wakes.
func BenchmarkSpinProbe16(b *testing.B) {
	const spinners = 16
	e := NewEngine()
	for i := 0; i < spinners; i++ {
		n := b.N / spinners
		if i < b.N%spinners {
			n++
		}
		e.Spawn(fmt.Sprintf("spinner%d", i), func(p *Process) { p.Spin(Time(i%5), &pollPair{n: n}) })
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.RunAll()
	b.StopTimer()
	if e.Counters().Probed != uint64(b.N) {
		b.Fatalf("probed %d wakes, want %d", e.Counters().Probed, b.N)
	}
	e.Stop()
}

// boomAt is a Spinner that continues one cycle at a time and panics
// with "boom" at its first wake at or after cycle at.
type boomAt struct {
	p  *Process
	at Time
}

func (b *boomAt) Probe() (Time, bool) {
	if b.p.Now() >= b.at {
		panic("boom")
	}
	return 1, false
}

// TestSpinProbePanicReachesRunCaller checks that a panic in a probe
// comes out of Run as a *ProcessPanic naming the spinning process and
// the cycle, both when Run dispatched the probe (the other process has
// finished, so nothing parks) and when the spinning process's own park
// ran it.
func TestSpinProbePanicReachesRunCaller(t *testing.T) {
	for _, c := range []struct {
		name  string
		other Time // how long the other process sleeps before it returns
	}{{"from Run", 5}, {"inline", 100}} {
		t.Run(c.name, func(t *testing.T) {
			e := NewEngine()
			e.Spawn("node0.app", func(p *Process) { p.Sleep(c.other) })
			e.Spawn("node3.app", func(p *Process) { p.Spin(1, &boomAt{p: p, at: 6}) })
			checkProcessPanic(t, recoverRun(func() { e.RunAll() }), "node3.app", 6, "boom")
			e.Stop()
		})
	}
}

// lockLoop is a Spinner that takes a FIFOMutex rounds times, holding it
// hold cycles and then sleeping gap cycles, as driven steps of its
// process: the shape of a cache miss queueing for a bus. At a plain
// wake it releases the mutex (then sleeps the gap) or takes it (then
// holds it); when the mutex is held it parks (Parked), and the grant's
// step arms the wake that ends the hold.
type lockLoop struct {
	p         *Process
	m         *FIFOMutex
	note      func(string)
	rounds    int
	hold, gap Time
	holding   bool
	grantFn   func()
}

func (l *lockLoop) Probe() (Time, bool) {
	if l.holding {
		l.m.Unlock()
		l.note(l.p.Name() + " released")
		l.holding = false
		l.rounds--
		return l.gap, false
	}
	if l.rounds == 0 {
		return 0, true
	}
	if !l.m.Acquire(l.p, l.grantFn) {
		return Parked, false
	}
	l.granted()
	return l.hold, false
}

func (l *lockLoop) granted() {
	l.holding = true
	l.note(l.p.Name() + " took")
}

// lockWorkload loads e with three processes taking one FIFOMutex in
// turn, a driven process taking it too, and a sleeper whose park runs
// the others' probes and grants for a while, logging every take and release with the engine's
// sequence counter. With spin the lockers run as lockLoop probes;
// without, as coroutines blocking in lock and sleeping through the
// hold. The two logs must be equal.
func lockWorkload(e *Engine, log *[]string, spin bool) {
	note := func(what string) {
		*log = append(*log, fmt.Sprintf("%d %s seq=%d", e.Now(), what, e.Scheduled()))
	}
	var m FIFOMutex
	for i := 0; i < 3; i++ {
		hold, gap := Time(3+2*i), Time(i)
		e.Spawn(fmt.Sprintf("locker%d", i), func(p *Process) {
			p.Sleep(Time(i))
			if spin {
				l := &lockLoop{p: p, m: &m, note: note, rounds: 5, hold: hold, gap: gap}
				l.grantFn = func() { l.granted(); p.After(l.hold, nil) }
				if d, done := l.Probe(); !done {
					p.Spin(d, l)
				}
			} else {
				for r := 0; r < 5; r++ {
					lock(&m, p)
					note(p.Name() + " took")
					p.Sleep(hold)
					m.Unlock()
					note(p.Name() + " released")
					p.Sleep(gap)
				}
			}
			note(p.Name() + " done")
		})
	}
	var dev *Process
	var take, held, release func()
	n := 0
	take = func() {
		if n++; n <= 6 {
			if m.Acquire(dev, held) {
				held()
			}
		}
	}
	held = func() { note("dev took"); dev.After(4, release) }
	release = func() { m.Unlock(); note("dev released"); dev.After(2, take) }
	dev = e.Drive("dev", take)
	// The sleeper stops well before the lockers do, so Run dispatches
	// the later probes and grants.
	e.Spawn("sleeper", func(p *Process) {
		for k := 0; k < 10; k++ {
			p.Sleep(3)
		}
	})
}

// TestSpinParkedMatchesLock pins the Parked half of Spin's contract: a
// probe that queues its process for a FIFOMutex and lets the grant's
// step arm its next wake dispatches exactly the (time, seq) sequence of
// a coroutine blocking in lock and sleeping through the hold, with
// probes run from Run and from another process's park alike, and its
// process resumes once.
func TestSpinParkedMatchesLock(t *testing.T) {
	var want, got []string
	ref := NewEngine()
	lockWorkload(ref, &want, false)
	ref.RunAll()
	e := NewEngine()
	lockWorkload(e, &got, true)
	e.RunAll()
	if !slices.Equal(got, want) {
		t.Fatalf("dispatch order diverges\n  lock: %q\n  spin: %q", want, got)
	}
	if e.Scheduled() != ref.Scheduled() || e.Now() != ref.Now() {
		t.Errorf("scheduled %d events, ended at %d; lock loop %d, %d", e.Scheduled(), e.Now(), ref.Scheduled(), ref.Now())
	}
	if waits := strings.Count(strings.Join(want, "\n"), "took"); waits < 20 || e.Counters().Probed == 0 {
		t.Errorf("%d takes logged, %d probed wakes: the lockers did not spin", waits, e.Counters().Probed)
	}
	rc, ec := ref.Counters(), e.Counters()
	if ec.Resumes+ec.SelfWakes >= rc.Resumes+rc.SelfWakes {
		t.Errorf("spinning lockers cost %d resumes and self-wakes, the lock loop %d", ec.Resumes+ec.SelfWakes, rc.Resumes+rc.SelfWakes)
	}
	e.Stop()
	ref.Stop()
}
