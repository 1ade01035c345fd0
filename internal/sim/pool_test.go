package sim

import "testing"

// TestPoolReuse: an empty pool hands out new zero boxes; a pool with
// boxes in it hands back the box Put last first, with the fields its
// last user left in it; and a warm pool allocates nothing.
func TestPoolReuse(t *testing.T) {
	type box struct {
		n   int
		ref *int
	}
	var p Pool[box]
	a, b := p.Get(), p.Get()
	if a == b || *a != (box{}) || *b != (box{}) {
		t.Fatalf("empty pool gave %p %+v and %p %+v, want two distinct zero boxes", a, *a, b, *b)
	}
	a.n, b.n = 1, 2
	b.ref = &a.n
	p.Put(a)
	p.Put(b)
	if got := p.Get(); got != b || got.n != 2 || got.ref != &a.n {
		t.Fatalf("first Get = %p %+v, want the box Put last (%p) with its fields", got, *got, b)
	}
	if got := p.Get(); got != a || got.n != 1 {
		t.Fatalf("second Get = %p %+v, want the box Put first (%p)", got, *got, a)
	}
	if got := p.Get(); got == a || got == b || *got != (box{}) {
		t.Fatalf("drained pool gave %p %+v, want a new zero box", got, *got)
	}
	p.Put(a)
	p.Put(b)
	allocs := testing.AllocsPerRun(1000, func() {
		x, y := p.Get(), p.Get()
		p.Put(y)
		p.Put(x)
	})
	if allocs != 0 {
		t.Errorf("warm pool: %v allocs per Get/Put round, want 0", allocs)
	}
}
