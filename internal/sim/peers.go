package sim

import "iter"

// PeerSlots maps peer node ids to slots of T that exist only while
// the peer is in use, so a node's per-peer state costs O(live peers)
// memory instead of a slot for every node in the machine. A slice of
// PeerSlots indexed by source node is a sparse (src, dst) table.
//
// It is a small open-addressed table keyed by peer id, plus a Pool
// that recycles released slots. A slot is a stable *T from Acquire
// until Release; a recycled slot keeps whatever its previous user left
// in it (an idle queue's backing array, a prebuilt callback), so
// steady-state traffic allocates nothing. The zero value is an empty
// table. Nothing is shared between tables, so a table used from one
// shard of a sharded machine is single-writer.
type PeerSlots[T any] struct {
	// buckets is empty or a power-of-two linear-probing table, at most
	// half full.
	buckets []peerBucket[T]
	live    int
	free    Pool[T]
}

// peerBucket holds one live slot; key is the peer id plus one, and 0
// marks an empty bucket.
type peerBucket[T any] struct {
	key  int32
	slot *T
}

// home returns key's preferred bucket (Fibonacci hashing, so strided
// peer sets spread as well as dense ones).
func home(key int32, mask int) int {
	return int(uint64(uint32(key))*0x9E3779B97F4A7C15>>32) & mask
}

// find returns the bucket holding key, or -1.
func (s *PeerSlots[T]) find(key int32) int {
	if len(s.buckets) == 0 {
		return -1
	}
	mask := len(s.buckets) - 1
	for i := home(key, mask); ; i = (i + 1) & mask {
		switch s.buckets[i].key {
		case key:
			return i
		case 0:
			return -1
		}
	}
}

// place stores b in the first empty bucket of its probe sequence.
func (s *PeerSlots[T]) place(b peerBucket[T]) {
	mask := len(s.buckets) - 1
	i := home(b.key, mask)
	for s.buckets[i].key != 0 {
		i = (i + 1) & mask
	}
	s.buckets[i] = b
}

// Get returns peer's slot, or nil when it has none.
func (s *PeerSlots[T]) Get(peer int) *T {
	if i := s.find(int32(peer + 1)); i >= 0 {
		return s.buckets[i].slot
	}
	return nil
}

// Acquire returns peer's slot, creating it on first use: a slot
// released earlier if one is free, otherwise a new zero T.
func (s *PeerSlots[T]) Acquire(peer int) *T {
	key := int32(peer + 1)
	if i := s.find(key); i >= 0 {
		return s.buckets[i].slot
	}
	slot := s.free.Get()
	if 2*(s.live+1) > len(s.buckets) {
		old := s.buckets
		s.buckets = make([]peerBucket[T], max(4, 2*len(old)))
		for _, b := range old {
			if b.key != 0 {
				s.place(b)
			}
		}
	}
	s.place(peerBucket[T]{key, slot})
	s.live++
	return slot
}

// Release ends peer's slot and keeps it in the pool. The caller
// must leave the slot idle: the next Acquire, for any peer, may return
// it unchanged.
func (s *PeerSlots[T]) Release(peer int) {
	i := s.find(int32(peer + 1))
	if i < 0 {
		return
	}
	s.free.Put(s.buckets[i].slot)
	// Shift later entries of the probe run back into the hole, so every
	// remaining key stays reachable from its home bucket. The entry at
	// j may fill the hole at i unless its home lies cyclically in (i, j].
	mask := len(s.buckets) - 1
	for j := (i + 1) & mask; s.buckets[j].key != 0; j = (j + 1) & mask {
		if h := home(s.buckets[j].key, mask); (j-h)&mask >= (j-i)&mask {
			s.buckets[i] = s.buckets[j]
			i = j
		}
	}
	s.buckets[i] = peerBucket[T]{}
	s.live--
}

// Len reports the live slot count.
func (s *PeerSlots[T]) Len() int { return s.live }

// All yields the live slots with their peer ids, in table order.
func (s *PeerSlots[T]) All() iter.Seq2[int, *T] {
	return func(yield func(int, *T) bool) {
		for _, b := range s.buckets {
			if b.key != 0 && !yield(int(b.key-1), b.slot) {
				return
			}
		}
	}
}
