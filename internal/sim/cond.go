package sim

// Cond is a condition variable for simulated processes. Waiters queue
// in FIFO order; Signal wakes exactly one. Because the simulation is
// single-threaded, the usual "recheck the predicate in a loop" rule
// still applies (another process may run between the signal and the
// resumption), but no mutex is required. The zero value is ready to
// use; a waiter wakes on its own process's engine.
type Cond struct {
	waiters FIFO[*Process]
}

// NewCond returns a new condition variable.
func NewCond() *Cond { return &Cond{} }

// Wait parks the calling process until Signal or Broadcast wakes it.
func (c *Cond) Wait(p *Process) {
	c.waiters.Push(p)
	p.park()
}

// Signal wakes the longest-waiting process, if any.
func (c *Cond) Signal() {
	if c.waiters.Len() == 0 {
		return
	}
	c.waiters.Pop().scheduleWake(0)
}

// Broadcast wakes every waiting process in FIFO order.
func (c *Cond) Broadcast() {
	for c.waiters.Len() > 0 {
		c.waiters.Pop().scheduleWake(0)
	}
}

// Waiting reports the number of parked waiters.
func (c *Cond) Waiting() int { return c.waiters.Len() }
