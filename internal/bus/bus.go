package bus

import (
	"repro/internal/sim"
)

// Bus is one multiplexed snooping bus: a FIFO-arbitrated resource that
// admits a single outstanding transaction, plus the set of snooping
// agents attached to it.
type Bus struct {
	mu     sim.FIFOMutex
	agents []Agent
	busy   *sim.BusyTracker
	cycles *sim.Counter // interned "<name>.cycles"
}

// New creates a bus. Stats keys are prefixed with the bus name (e.g.
// "bus.mem0").
func New(st *sim.Stats, name string) *Bus {
	return &Bus{
		busy:   st.Busy(name),
		cycles: st.Counter(name + ".cycles"),
	}
}

// Attach registers an agent as a snooper on this bus.
func (b *Bus) Attach(a Agent) { b.agents = append(b.agents, a) }

// AcquireThen arbitrates for the bus (FIFO) for process p: it reports
// true when p holds the bus at once, else p runs then as its step once
// granted.
func (b *Bus) AcquireThen(p *sim.Process, then func()) bool { return b.mu.Acquire(p, then) }

// Release frees the bus for the next waiter.
func (b *Bus) Release() { b.mu.Unlock() }

// OccupyThen accounts d cycles of occupancy while p holds the bus: p
// runs then as its step d cycles from now.
func (b *Bus) OccupyThen(p *sim.Process, d sim.Time, then func()) {
	b.account(d)
	p.After(d, then)
}

// account records d cycles of occupancy.
func (b *Bus) account(d sim.Time) {
	b.busy.AddBusy(d)
	b.cycles.Add(uint64(d))
}

// snoopAll presents tx to every attached agent except the initiator,
// folding their responses. home is the home agent for tx.Addr (may be
// attached to a different bus; pass nil here if so).
func (b *Bus) snoopAll(tx Tx, home Agent) (shared bool, supplier Agent) {
	for _, a := range b.agents {
		if a == tx.Initiator {
			continue
		}
		s := a.SnoopTx(tx, a == home)
		if s.HasCopy {
			shared = true
		}
		if s.WillSupply {
			supplier = a
		}
	}
	return shared, supplier
}

// Busy returns the occupancy tracker (for §5.2 occupancy results).
func (b *Bus) Busy() *sim.BusyTracker { return b.busy }
