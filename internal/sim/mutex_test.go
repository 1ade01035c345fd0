package sim

import "testing"

// lock blocks coroutine p until it owns m: the coroutine reference the
// driven and spinning lockers are checked against.
func lock(m *FIFOMutex, p *Process) {
	if !m.Acquire(p, nil) {
		p.park() // direct handoff: the lock is ours when we resume
	}
}

// unheld reports whether m is free: Unlock panics on a free mutex.
func unheld(m *FIFOMutex) (free bool) {
	defer func() { free = recover() != nil }()
	m.Unlock()
	return false
}

func TestFIFOMutexExclusionAndOrder(t *testing.T) {
	e := NewEngine()
	var m FIFOMutex
	var order []string
	inside := 0
	for _, name := range []string{"a", "b", "c", "d"} {
		name := name
		e.Spawn(name, func(p *Process) {
			lock(&m, p)
			inside++
			if inside != 1 {
				t.Errorf("mutual exclusion violated: %d inside", inside)
			}
			order = append(order, name)
			p.Sleep(10)
			inside--
			m.Unlock()
		})
	}
	e.RunAll()
	want := []string{"a", "b", "c", "d"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want FIFO %v", order, want)
		}
	}
	if !unheld(&m) {
		t.Fatal("mutex still held after all processes finished")
	}
}

func TestFIFOMutexUncontended(t *testing.T) {
	e := NewEngine()
	var m FIFOMutex
	e.Spawn("solo", func(p *Process) {
		start := p.Now()
		lock(&m, p)
		if p.Now() != start {
			t.Errorf("uncontended lock advanced time by %d", p.Now()-start)
		}
		m.Unlock()
	})
	e.RunAll()
}

func TestFIFOMutexUnlockUnheldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var m FIFOMutex
	m.Unlock()
}

// TestFIFOMutexQueueLen checks that both waiters are queued while the
// holder sleeps: each is granted at the holder's Unlock, in arrival
// order, and the mutex is free once they release it.
func TestFIFOMutexQueueLen(t *testing.T) {
	e := NewEngine()
	var m FIFOMutex
	var grants []string
	e.Spawn("holder", func(p *Process) {
		lock(&m, p)
		p.Sleep(100)
		m.Unlock()
	})
	for _, name := range []string{"w0", "w1"} {
		e.Spawn(name, func(p *Process) {
			p.Sleep(1)
			lock(&m, p)
			if p.Now() != 100 {
				t.Errorf("%s granted at %d, want 100 (the holder's Unlock)", name, p.Now())
			}
			grants = append(grants, name)
			m.Unlock()
		})
	}
	e.RunAll()
	if len(grants) != 2 || grants[0] != "w0" || grants[1] != "w1" {
		t.Errorf("grants = %v, want both waiters in arrival order [w0 w1]", grants)
	}
	if !unheld(&m) {
		t.Error("mutex still held after both waiters released it")
	}
}
