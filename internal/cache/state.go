// Package cache implements the node's single-level, direct-mapped,
// write-allocate processor cache kept coherent by a MOESI
// write-invalidate snooping protocol (paper §2, §4.1: 256 KB,
// 64-byte address and transfer blocks, duplicated tags so snoops do
// not stall the processor), plus the main-memory home agent. Every
// processor access is a Range of 8-byte words, one word for Load and
// Store: a one-word hit sleeps out its cycle, and any other range runs
// its hits and misses as one engine probe.
package cache

import "fmt"

// State is a MOESI coherence state.
type State uint8

const (
	// Invalid: the line holds no usable data.
	Invalid State = iota
	// Shared: read-only copy; other caches or memory may hold copies.
	Shared
	// Exclusive: read-only copy, no other cache holds one; may be
	// upgraded to Modified without a bus transaction.
	Exclusive
	// Owned: dirty copy with sharers; this cache supplies the data on
	// reads and must write it back on eviction.
	Owned
	// Modified: dirty exclusive copy.
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Owned:
		return "O"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Valid reports whether the state holds usable data.
func (s State) Valid() bool { return s != Invalid }

// Dirty reports whether eviction requires a writeback.
func (s State) Dirty() bool { return s == Owned || s == Modified }

// CanSupply reports whether a snooper in this state supplies data
// cache-to-cache instead of the home.
func (s State) CanSupply() bool { return s == Modified || s == Owned || s == Exclusive }
