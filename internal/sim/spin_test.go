package sim

import (
	"fmt"
	"math"
	"slices"
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
	if len(want) < 100 || ref.Probed() != 0 {
		t.Fatalf("sleep loop logged %d dispatches with %d probes", len(want), ref.Probed())
	}

	check := func(name string, e *Engine, got []string) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s: dispatch order diverges\n  sleep: %q\n  spin:  %q", name, want, got)
		}
		if e.Scheduled() != ref.Scheduled() || e.Now() != ref.Now() {
			t.Errorf("%s: scheduled %d events, ended at %d; sleep loop %d, %d", name, e.Scheduled(), e.Now(), ref.Scheduled(), ref.Now())
		}
		if e.Probed() == 0 {
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
	if four.Probed() != 4*four.Engine(0).Probed() {
		t.Errorf("ShardSet.Probed = %d, want 4 x %d", four.Probed(), four.Engine(0).Probed())
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
	if e.Probed() != uint64(b.N) {
		b.Fatalf("probed %d wakes, want %d", e.Probed(), b.N)
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
	if e.Probed() != uint64(b.N) {
		b.Fatalf("probed %d wakes, want %d", e.Probed(), b.N)
	}
	e.Stop()
}
