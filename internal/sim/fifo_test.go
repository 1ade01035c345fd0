package sim

import "testing"

func TestFIFOOrderAndLen(t *testing.T) {
	var q FIFO[int]
	for i := 0; i < 10; i++ {
		q.Push(i)
	}
	if q.Len() != 10 || q.Peek() != 0 {
		t.Fatalf("Len=%d Peek=%d", q.Len(), q.Peek())
	}
	for i := 0; i < 10; i++ {
		if v := q.Pop(); v != i {
			t.Fatalf("Pop = %d, want %d", v, i)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after drain", q.Len())
	}
}

func TestFIFOBoundedWhenNeverEmpty(t *testing.T) {
	// A queue oscillating between depths 1 and 2 without ever draining
	// must not grow its backing array: compaction reclaims the consumed
	// prefix.
	var q FIFO[int]
	q.Push(0)
	for i := 1; i <= 1_000_000; i++ {
		q.Push(i)
		if v := q.Pop(); v != i-1 {
			t.Fatalf("Pop = %d, want %d", v, i-1)
		}
	}
	if c := cap(q.buf); c > 16 {
		t.Fatalf("backing array grew to cap %d on a depth-2 workload", c)
	}
}

func TestFIFOZeroAllocSteadyState(t *testing.T) {
	var q FIFO[int]
	for i := 0; i < 8; i++ {
		q.Push(i)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		q.Push(1)
		q.Pop()
	})
	if allocs != 0 {
		t.Errorf("steady-state Push+Pop allocates %.1f objects/op, want 0", allocs)
	}
}

// TestTimedFIFOPopsInEventOrder pins the TimedFIFO contract: when each
// Push schedules its value's event at the same moment, every event pops
// exactly its own value, whatever mix of due times the pushes use —
// equal, later, and earlier than entries already queued.
func TestTimedFIFOPopsInEventOrder(t *testing.T) {
	e := NewEngine()
	var q TimedFIFO[int]
	rng := uint64(7)
	next := func(n uint64) Time {
		rng = rng*6364136223846793005 + 1442695040888963407
		return Time(rng >> 33 % n)
	}
	id, popped := 0, 0
	var send func()
	send = func() {
		for k := next(4); k > 0; k-- {
			d, v := next(300), id
			id++
			q.Push(e.Now()+d, v)
			e.Schedule(d, func() {
				if got := q.Pop(); got != v {
					t.Fatalf("event for %d popped %d", v, got)
				}
				popped++
			})
		}
		if id < 5000 {
			e.Schedule(next(3), send)
		}
	}
	e.Schedule(0, send)
	e.RunAll()
	if popped != id {
		t.Fatalf("popped %d of %d", popped, id)
	}
}

func TestTimedFIFOZeroAllocSteadyState(t *testing.T) {
	var q TimedFIFO[int]
	for i := 0; i < 8; i++ {
		q.Push(Time(10*i), i)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		q.Push(35, 1) // lands mid-queue
		q.Pop()
	})
	if allocs != 0 {
		t.Errorf("steady-state Push+Pop allocates %.1f objects/op, want 0", allocs)
	}
}
