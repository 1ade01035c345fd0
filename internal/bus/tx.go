// Package bus models the node's multiplexed, snooping, coherent buses:
// the 100 MHz memory bus, the 50 MHz coherent I/O bus, and the I/O
// bridge between them (paper §4.1). Each bus admits one outstanding
// transaction and arbitrates FIFO.
//
// The Fabric type is the per-node front door: caches, devices, and the
// processor issue transactions through it and it works out which buses
// are held, for how long (per Table 2 of the paper), and which agents
// snoop the transaction.
package bus

import (
	"fmt"

	"repro/internal/params"
)

// Kind enumerates bus transaction types, a subset of MBus level-2.
type Kind int

const (
	// CR is a coherent read: fetch a 64-byte block for sharing.
	CR Kind = iota
	// CRI is a coherent read-and-invalidate: fetch a block with
	// ownership, invalidating all other copies. Stores to blocks not
	// held Modified/Exclusive issue CRI (see DESIGN.md calibration).
	CRI
	// CI is an address-only coherent invalidation (no data transfer),
	// used by CNI devices to recall CDR/queue blocks.
	CI
	// WB writes a dirty 64-byte block back to its home.
	WB
	// UP is an update push: the owner broadcasts fresh block contents
	// so caches holding a matching (invalid) frame can refill without
	// a later read miss. The paper suggests update-based protocols as
	// a CNI enhancement (§2.2, §5.1.2); this is the optional
	// Config.UpdateProtocol extension.
	UP
)

func (k Kind) String() string {
	switch k {
	case CR:
		return "CR"
	case CRI:
		return "CRI"
	case CI:
		return "CI"
	case WB:
		return "WB"
	case UP:
		return "UP"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Tx is one coherent bus transaction.
type Tx struct {
	Kind      Kind
	Addr      uint64 // block-aligned
	Initiator Agent
}

// Snoop is an agent's response to observing a transaction.
type Snoop struct {
	// HasCopy reports the agent holds the block in a non-Invalid state
	// (before acting on the transaction).
	HasCopy bool
	// WillSupply reports the agent owns the data (M/O/E) and supplies
	// it cache-to-cache instead of the home.
	WillSupply bool
}

// Agent is anything attached to a bus that participates in snooping:
// processor caches, CNI devices, and main memory.
type Agent interface {
	// AgentName identifies the agent in traces and stats.
	AgentName() string
	// AgentClass selects Table 2 transfer costs (proc/device/memory).
	AgentClass() params.AgentClass
	// SnoopTx observes a transaction initiated by another agent and
	// performs any required state transition (invalidate, downgrade,
	// absorb writeback). It must not block; it runs inside the
	// initiator's transaction. The boolean reports whether the agent is
	// the home for the address (homes absorb WBs and supply data when
	// no cache owns the block). tx comes by value: a pointer would
	// escape through this interface call and cost every coherent
	// transaction a heap box.
	SnoopTx(tx Tx, isHome bool) Snoop
}

// Device is an Agent with uncachable device registers.
type Device interface {
	Agent
	// RegRead services an uncached load; reg is a device-local offset.
	RegRead(reg uint64) uint64
	// RegWrite services an uncached store.
	RegWrite(reg, val uint64)
}

// Result summarises a completed coherent transaction for the initiator.
type Result struct {
	// Shared reports whether any other agent retains a copy.
	Shared bool
	// Supplier is who provided the data for CR/CRI.
	Supplier params.AgentClass
}
