package sim

import "testing"

// TestPeerSlotsMatchesMap drives random acquire/release traffic
// through a table and checks every lookup, count and iteration against
// a map model — including the backward-shift deletions that keep probe
// runs intact.
func TestPeerSlotsMatchesMap(t *testing.T) {
	var s PeerSlots[int]
	model := map[int]*int{}
	rng := uint64(7)
	for step := 0; step < 20000; step++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		// Strided peers collide under a naive low-bits hash.
		peer := int(rng>>40) % 200 * 64
		if slot, ok := model[peer]; ok && rng>>20&1 == 0 {
			if s.Get(peer) != slot {
				t.Fatalf("step %d: Get(%d) lost its slot", step, peer)
			}
			s.Release(peer)
			delete(model, peer)
		} else {
			slot := s.Acquire(peer)
			if want, ok := model[peer]; ok && slot != want {
				t.Fatalf("step %d: Acquire(%d) returned a different live slot", step, peer)
			}
			*slot = peer
			model[peer] = slot
		}
		if step%97 != 0 {
			continue
		}
		if s.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, want %d", step, s.Len(), len(model))
		}
		seen := 0
		for peer, slot := range s.All() {
			if model[peer] != slot || *slot != peer {
				t.Fatalf("step %d: All yielded a stale slot for %d", step, peer)
			}
			seen++
		}
		if seen != len(model) {
			t.Fatalf("step %d: All yielded %d slots, want %d", step, seen, len(model))
		}
		for peer := 0; peer < 200*64; peer += 64 {
			if s.Get(peer) != model[peer] {
				t.Fatalf("step %d: Get(%d) disagrees with the model", step, peer)
			}
		}
	}
}

// TestPeerSlotsRecycleZeroAlloc: a released slot comes back, unchanged,
// for the next new peer, so peers that open and go idle in steady state
// allocate nothing.
func TestPeerSlotsRecycleZeroAlloc(t *testing.T) {
	var s PeerSlots[[4]int]
	slot := s.Acquire(10)
	slot[0] = 42
	s.Release(10)
	if got := s.Acquire(11); got != slot || got[0] != 42 {
		t.Fatalf("Acquire after Release did not recycle the slot")
	}
	s.Release(11)
	allocs := testing.AllocsPerRun(1000, func() {
		for peer := 0; peer < 32; peer++ {
			s.Acquire(peer)
		}
		for peer := 0; peer < 32; peer++ {
			s.Release(peer)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state acquire/release allocates %.1f objects/op, want 0", allocs)
	}
}
