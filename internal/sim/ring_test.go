package sim

import "testing"

// TestRingFIFO: order is preserved through growth and wrap-around.
func TestRingFIFO(t *testing.T) {
	var r Ring[int]
	next, want := 0, 0
	// Interleave pushes and pops so head/tail wrap the backing array
	// repeatedly while the depth forces several growths.
	for round := 0; round < 50; round++ {
		for i := 0; i < round%17+1; i++ {
			r.Push(next)
			next++
		}
		for r.Len() > round%5 {
			if got := r.Peek(); got != want {
				t.Fatalf("Peek = %d, want %d", got, want)
			}
			if got := r.Pop(); got != want {
				t.Fatalf("Pop = %d, want %d", got, want)
			}
			want++
		}
	}
	for r.Len() > 0 {
		if got := r.Pop(); got != want {
			t.Fatalf("drain Pop = %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d values, pushed %d", want, next)
	}
}

// TestRingSteadyStateAllocs: push/pop at steady depth allocates
// nothing once the ring has grown to capacity.
func TestRingSteadyStateAllocs(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 16; i++ {
		r.Push(i)
	}
	for r.Len() > 0 {
		r.Pop()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 8; i++ {
			r.Push(i)
		}
		for i := 0; i < 8; i++ {
			r.Pop()
		}
	})
	if allocs != 0 {
		t.Errorf("ring steady state allocates %.1f objects/op, want 0", allocs)
	}
}
