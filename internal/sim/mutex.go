package sim

// FIFOMutex is a strictly fair mutual-exclusion lock for simulated
// processes, used to model multiplexed buses that admit one
// outstanding transaction. Unlock hands the lock directly to the
// longest-waiting process, so arrival order equals service order.
// A waiter runs a step once granted (Acquire).
type FIFOMutex struct {
	held    bool
	waiters FIFO[waiter]
}

// Acquire takes the mutex for process p and reports true, or queues p
// and reports false: Unlock hands p the mutex and wakes it then, at the
// current instant after the work already scheduled, running fn as its
// step (with a nil fn, a plain wake: resuming a coroutine, or its
// probe when it spins).
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
