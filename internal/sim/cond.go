package sim

// Cond is a condition variable for simulated processes. Waiters queue
// in FIFO order; Signal wakes exactly one. Because the simulation is
// single-threaded, the usual "recheck the predicate in a loop" rule
// still applies (another process may run between the signal and the
// resumption), but no mutex is required. The zero value is ready to
// use; a waiter wakes on its own process's engine.
type Cond struct {
	waiters FIFO[waiter]
}

// Wait parks the calling process until Signal or Broadcast wakes it.
func (c *Cond) Wait(p *Process) {
	c.Await(p, nil)
	p.park()
}

// Await queues driven process p, which runs fn as its step when Signal
// or Broadcast wakes it — at the (time, seq) a coroutine in Wait would
// resume at.
func (c *Cond) Await(p *Process, fn func()) { c.waiters.Push(waiter{p, fn}) }

// Signal wakes the longest-waiting process, if any.
func (c *Cond) Signal() {
	if c.waiters.Len() == 0 {
		return
	}
	w := c.waiters.Pop()
	w.p.wake(0, w.fn)
}

// Broadcast wakes every waiting process in FIFO order.
func (c *Cond) Broadcast() {
	for c.waiters.Len() > 0 {
		w := c.waiters.Pop()
		w.p.wake(0, w.fn)
	}
}

// Waiting reports the number of parked waiters.
func (c *Cond) Waiting() int { return c.waiters.Len() }
