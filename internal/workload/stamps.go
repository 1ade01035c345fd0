package workload

import "repro/internal/sim"

// stamps carries intended-arrival timestamps from the open-loop sender
// to the destination's handler: one FIFO per (src,dst) pair with
// messages outstanding. Per-pair delivery is FIFO end to end (FIFO
// fabrics, in-order reassembly), so a queue per pair is enough. A
// pair's queue exists only while it holds stamps: the pop that empties
// it releases the slot to the source's free list, queue buffer and
// all, so memory follows the messages outstanding rather than n², and
// steady-state push/pop allocates nothing.
// stamps[src] holds src's queues by destination.
type stamps []sim.PeerSlots[sim.FIFO[sim.Time]]

// Push appends t to (src, dst)'s queue.
func (s stamps) Push(src, dst int, t sim.Time) {
	s[src].Acquire(dst).Push(t)
}

// Pop removes and returns the oldest stamp in (src, dst)'s queue,
// which must be non-empty.
func (s stamps) Pop(src, dst int) sim.Time {
	q := s[src].Get(dst)
	t := q.Pop()
	if q.Len() == 0 {
		s[src].Release(dst)
	}
	return t
}
