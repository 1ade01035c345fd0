package workload

import (
	"testing"

	"repro/internal/sim"
)

// TestStampsFIFO: each pair's stamps come back in push order, pairs
// are independent, and a pair's slot is released once it drains.
func TestStampsFIFO(t *testing.T) {
	s := make(stamps, 4)
	next := sim.Time(100)
	var want []sim.Time
	for i := 0; i < 24; i++ {
		s.Push(1, 2, next)
		s.Push(1, 3, next*10)
		want = append(want, next)
		next++
	}
	for i, w := range want {
		if got := s.Pop(1, 2); got != w {
			t.Fatalf("Pop(1,2) #%d = %d, want %d", i, got, w)
		}
	}
	if got := s[1].Len(); got != 1 {
		t.Fatalf("live slots after draining (1,2) = %d, want 1", got)
	}
	// (1,3) was untouched by (1,2)'s traffic.
	if got := s.Pop(1, 3); got != 1000 {
		t.Fatalf("Pop(1,3) = %d, want 1000", got)
	}
}

// TestStampsSteadyStateAllocs: window-depth push/pop traffic over
// pairs that open and drain — the workload hot path — allocates
// nothing once the recycled slots have warmed up.
func TestStampsSteadyStateAllocs(t *testing.T) {
	s := make(stamps, 16)
	var next sim.Time
	allocs := testing.AllocsPerRun(1000, func() {
		for dst := 0; dst < 16; dst++ {
			for i := 0; i < 4; i++ {
				s.Push(5, dst, next)
				next++
			}
		}
		for dst := 0; dst < 16; dst++ {
			for i := 0; i < 4; i++ {
				s.Pop(5, dst)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("stamp queues steady state allocate %.1f objects/op, want 0", allocs)
	}
}
