package sim

// FIFO is a slice-backed queue that reuses its backing array instead
// of re-slicing it away (`q = q[1:]` leaks capacity and forces the
// next append to reallocate, which put one allocation on every
// park/wake cycle in the seed implementation). Push and Pop are
// amortised zero-alloc once the queue has reached its steady-state
// depth. The zero value is ready to use.
type FIFO[T any] struct {
	buf  []T
	head int
}

// Push appends v to the tail, first compacting live elements to the
// front when more than half the backing array is consumed prefix.
// The copy moves at most as many elements as were popped since the
// last compaction, so it is amortised O(1) per operation and keeps
// memory O(live depth) even when the queue never fully drains.
func (q *FIFO[T]) Push(v T) {
	if q.head > 0 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:]) // release references for the collector
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the head. The caller must check Len first.
func (q *FIFO[T]) Pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero // release references for the collector
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}

// Peek returns the head without removing it.
func (q *FIFO[T]) Peek() T { return q.buf[q.head] }

// Len reports the number of queued elements.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// TimedFIFO queues values by the simulated time each is due. Push goes
// in behind the last entry due no later than it, so entries pop in
// (due time, push order) — the (at, seq) order the engine fires events
// in when each Push schedules its value's event at the same moment.
// A queue drained by one prebuilt callback per event therefore pops
// exactly the value that event is for. When due times never decrease
// (a constant delay) Push is one compare and an append.
type TimedFIFO[T any] struct {
	q FIFO[timed[T]]
}

type timed[T any] struct {
	at Time
	v  T
}

// Push queues v due at at.
func (t *TimedFIFO[T]) Push(at Time, v T) {
	q := &t.q
	q.Push(timed[T]{at, v})
	i := len(q.buf) - 1
	for ; i > q.head && q.buf[i-1].at > at; i-- {
		q.buf[i] = q.buf[i-1]
	}
	q.buf[i] = timed[T]{at, v}
}

// Pop removes and returns the earliest-due value. The caller must know
// the queue is non-empty.
func (t *TimedFIFO[T]) Pop() T { return t.q.Pop().v }
