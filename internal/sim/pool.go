package sim

// Pool is a LIFO free list of *T boxes, so steady-state traffic reuses
// its boxes instead of allocating them. Get returns the box Put last,
// holding whatever its last user left in it (a bound callback, a
// backing array), or a new zero T when the pool is empty. The zero
// value is an empty pool. One engine uses a pool at a time; nothing
// locks it. Get and Put stay small enough to inline, since coroutine
// probes call them on their stacks.
type Pool[T any] struct{ free []*T }

// Get pops the box Put last, or returns a new zero T.
func (p *Pool[T]) Get() *T {
	n := len(p.free)
	if n == 0 {
		return new(T)
	}
	t := p.free[n-1]
	p.free = p.free[:n-1]
	return t
}

// Put returns t to the pool; its caller must hold no reference to it.
func (p *Pool[T]) Put(t *T) { p.free = append(p.free, t) }
