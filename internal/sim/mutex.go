package sim

// FIFOMutex is a strictly fair mutual-exclusion lock for simulated
// processes, used to model multiplexed buses that admit one
// outstanding transaction. Unlock hands the lock directly to the
// longest-waiting process, so arrival order equals service order.
// Coroutines block in Lock; driven processes queue a step (Acquire).
type FIFOMutex struct {
	held    bool
	waiters FIFO[waiter]
}

// Lock blocks the process until it owns the mutex.
func (m *FIFOMutex) Lock(p *Process) {
	if !m.Acquire(p, nil) {
		p.park() // direct handoff: the lock is ours when we resume
	}
}

// Acquire takes the mutex for driven process p and reports true, or
// queues p and reports false: p then runs fn as its step once Unlock
// hands it the mutex, at the (time, seq) Lock would resume at.
func (m *FIFOMutex) Acquire(p *Process, fn func()) bool {
	if !m.held {
		m.held = true
		return true
	}
	m.waiters.Push(waiter{p, fn})
	return false
}

// Unlock releases the mutex or hands it to the next waiter.
func (m *FIFOMutex) Unlock() {
	if !m.held {
		panic("sim: Unlock of unheld FIFOMutex")
	}
	if m.waiters.Len() == 0 {
		m.held = false
		return
	}
	// The mutex stays held on behalf of the next waiter.
	w := m.waiters.Pop()
	w.p.wake(0, w.fn)
}

// Held reports whether the mutex is currently owned.
func (m *FIFOMutex) Held() bool { return m.held }

// QueueLen reports the number of processes waiting for the mutex.
func (m *FIFOMutex) QueueLen() int { return m.waiters.Len() }
