package sim

import (
	"container/heap"
	"testing"
)

// The engine's event loop is the substrate under every experiment, so
// its throughput is pinned by benchmarks: BenchmarkEngineEvents is the
// event queue as shipped with every event due on its calendar ring,
// BenchmarkEngineEventsFar the same loop with every event due beyond
// the ring (the 4-ary heap path), and BenchmarkBoxedHeapBaseline the
// container/heap + interface{} design the queue replaced, kept here so
// the speedup claim stays measurable (target: >=2x events/sec, 0
// allocs/op in steady state).

// benchFanout is the number of simultaneously pending events, roughly
// matching a 16-node machine's process-wake population.
const benchFanout = 64

func BenchmarkEngineEvents(b *testing.B) { benchEngineEvents(b, 0) }

// BenchmarkEngineEventsFar is BenchmarkEngineEvents with every event
// due at or beyond the calendar ring, so each one goes through the
// 4-ary heap.
func BenchmarkEngineEventsFar(b *testing.B) { benchEngineEvents(b, ringSize) }

// benchEngineEvents keeps benchFanout events pending, each scheduled
// ahead+benchFanout cycles out once warm.
func benchEngineEvents(b *testing.B, ahead Time) {
	e := NewEngine()
	n := 0
	fn := func() { n++ }
	for i := 0; i < benchFanout; i++ {
		e.Schedule(ahead+Time(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Pop the minimum, execute it, push a replacement: one full
		// schedule+dispatch cycle per iteration at constant population.
		e.Run(e.nextAt())
		e.Schedule(ahead+benchFanout, fn)
	}
	b.StopTimer()
	e.RunAll()
	if n == 0 {
		b.Fatal("no events ran")
	}
}

func BenchmarkEngineProcessSleep(b *testing.B) {
	e := NewEngine()
	rounds := b.N
	e.Spawn("sleeper", func(p *Process) {
		for i := 0; i < rounds; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.RunAll()
	b.StopTimer()
	e.Stop()
}

// spawnAlternating spawns two processes that sleep one cycle per
// round, so each park finds the other process's wake first and hands
// control back through Run: two foreign wakes per round.
func spawnAlternating(e *Engine, rounds int) {
	for _, name := range [...]string{"ping", "pong"} {
		e.Spawn(name, func(p *Process) {
			for i := 0; i < rounds; i++ {
				p.Sleep(1)
			}
		})
	}
}

func BenchmarkProcessSwitch(b *testing.B) {
	e := NewEngine()
	spawnAlternating(e, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	e.RunAll()
	b.StopTimer()
	e.Stop()
}

// boxedEvent/boxedHeap reproduce the seed implementation: a binary
// heap through container/heap's interface{} API, boxing one event per
// push.
type boxedEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type boxedHeap []boxedEvent

func (h boxedHeap) Len() int { return len(h) }
func (h boxedHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h boxedHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x interface{}) { *h = append(*h, x.(boxedEvent)) }
func (h *boxedHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

func BenchmarkBoxedHeapBaseline(b *testing.B) {
	var h boxedHeap
	var now Time
	var seq uint64
	n := 0
	fn := func() { n++ }
	for i := 0; i < benchFanout; i++ {
		seq++
		heap.Push(&h, boxedEvent{at: Time(i), seq: seq, fn: fn})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := h[0]
		heap.Pop(&h)
		now = ev.at
		ev.fn()
		seq++
		heap.Push(&h, boxedEvent{at: now + benchFanout, seq: seq, fn: fn})
	}
	b.StopTimer()
	if n == 0 {
		b.Fatal("no events ran")
	}
}

func BenchmarkStatsCounterAdd(b *testing.B) {
	s := NewStats()
	c := s.Counter("bench.cycles")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Add(42)
	}
	if c.Value() == 0 {
		b.Fatal("counter did not accumulate")
	}
}

func BenchmarkStatsStringKeyAdd(b *testing.B) {
	// The pattern the interned handles replaced: concatenate a name and
	// hash it per increment.
	s := NewStats()
	name := "bus.mem0"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(name+".cycles", 42)
	}
}
