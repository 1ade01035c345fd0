// Package scenario is the user-scriptable layer over the simulated
// machine — the programmable interface the paper argues a coherent NI
// makes possible. Build constructs the machine once (nodes, caches,
// buses, NI design, interconnect fabric) and hands out one Endpoint
// per node; a Scenario is an ordered set of per-node Go functions
// that run as simulated processes and communicate through those
// Endpoints over the configured NI exactly as the paper's own
// benchmarks do. Machine.Run executes a scenario and returns a typed
// Trace (runtime cycles, per-counter deltas, latency histograms).
//
// internal/apps (the five macrobenchmarks and the microbenchmarks)
// and internal/workload (the traffic generators) are ordinary
// consumers of this API: everything they measure can be expressed by
// user code, and the timing of a scenario is byte-for-byte the timing
// of the equivalent hand-wired machine program.
package scenario

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/params"
	"repro/internal/sim"
)

// Machine is one built simulated machine with per-node Endpoints.
// Build it once, run any number of scenarios on it (simulated time
// accumulates across runs), and Close it when done.
type Machine struct {
	m   *machine.Machine
	eps []*Endpoint
}

// Build constructs a simulated machine for cfg. Unlike the low-level
// machine constructor it reports invalid configurations as errors.
func Build(cfg params.Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	capture := applyDefaultTrace(&cfg)
	sm := &Machine{m: machine.New(cfg)}
	if capture {
		captureTrace(sm)
	}
	for _, n := range sm.m.Nodes {
		ep := &Endpoint{m: sm, node: n}
		ep.inboxReady = func() bool { return ep.inbox.Len() > 0 }
		// The inbox handler backs Endpoint.Recv; registration is free
		// in simulated time and inert until someone sends to the inbox.
		n.Msgr.Register(inboxHandler, func(c *msg.Context) {
			ep.inbox.Push(Message{Src: c.Src, Size: c.Size, Payload: c.Payload})
		})
		sm.eps = append(sm.eps, ep)
	}
	return sm, nil
}

// Config returns the machine's configuration.
func (m *Machine) Config() params.Config { return m.m.Cfg }

// Nodes returns the node count.
func (m *Machine) Nodes() int { return len(m.eps) }

// Endpoint returns node id's endpoint.
func (m *Machine) Endpoint(id int) *Endpoint { return m.eps[id] }

// Clock returns the current simulated time in cycles (on a sharded
// machine, the global time of the last barrier alignment).
func (m *Machine) Clock() sim.Time { return m.m.Now() }

// Sharded reports whether the machine runs on the sharded
// conservative-lookahead engine (params.Config.Shards).
func (m *Machine) Sharded() bool { return m.m.Sharded() }

// BusOccupancy returns total busy cycles summed over all nodes'
// memory buses since construction (§5.2's occupancy metric). It may
// be sampled mid-run from inside a scenario body.
func (m *Machine) BusOccupancy() sim.Time { return m.m.MemBusOccupancy() }

// Counter returns the current value of a named statistics counter
// (e.g. "net.msg", "net.bytes"), cumulative since construction.
func (m *Machine) Counter(name string) uint64 { return m.m.Stats.Get(name) }

// Stats exposes the underlying statistics sink for diagnostic dumps.
func (m *Machine) Stats() *sim.Stats { return m.m.Stats }

// Advance continues a horizon-stopped machine to a later horizon with
// no scenario bookkeeping — no spawns, counter snapshots, or trace
// deltas. It is the stepping primitive the steady-state allocation
// pins drive windows with; measurement runs use RunUntil.
func (m *Machine) Advance(horizon sim.Time) { m.m.Run(horizon) }

// EventsScheduled returns how many events the machine's engines have
// scheduled since construction, on every shard.
func (m *Machine) EventsScheduled() uint64 { return m.m.Scheduled() }

// Probed returns how many idle-poll wakes the machine's engines ran as
// probes without resuming the polling process (sim.Engine.Probed), on
// every shard. Each probed empty poll is two: the loop overhead's wake
// and the poll load's.
func (m *Machine) Probed() uint64 { return m.m.Probed() }

// Resumes returns how many coroutine resumes the machine's engines made
// (sim.Engine.Resumes), on every shard: each costs two coroutine
// switches.
func (m *Machine) Resumes() uint64 { return m.m.Resumes() }

// SelfWakes returns how many process wakes the machine's engines
// returned inline to the parking process, with no switch
// (sim.Engine.SelfWakes), on every shard.
func (m *Machine) SelfWakes() uint64 { return m.m.SelfWakes() }

// Close unwinds the machine's app processes. Call once, after the
// final Run.
func (m *Machine) Close() { m.m.Stop() }

// nodeProc is one scenario entry: body runs as node's process.
type nodeProc struct {
	node int
	body NodeFunc
}

// NodeFunc is one node's program within a scenario. It runs as that
// node's simulated process; every Endpoint method charges the
// simulated costs of the configured NI, bus, and fabric.
type NodeFunc func(ep *Endpoint)

// Scenario is an ordered set of node programs. Order matters for
// determinism: processes are spawned (and first activated) in the
// order they were added, so two runs of the same scenario on
// identically-configured machines are byte-identical.
type Scenario struct {
	procs []nodeProc
}

// New returns an empty scenario.
func New() *Scenario { return &Scenario{} }

// At appends a program for node id and returns the scenario for
// chaining. A node may host at most one program per Run.
func (s *Scenario) At(node int, body NodeFunc) *Scenario {
	s.procs = append(s.procs, nodeProc{node: node, body: body})
	return s
}

// Run executes the scenario to completion — until no simulated work
// remains — and returns its trace.
func (m *Machine) Run(s *Scenario) *Trace { return m.RunUntil(s, sim.Forever) }

// RunUntil executes the scenario until no work remains or the clock
// would pass horizon, whichever is first. A horizon-stopped machine
// may still hold parked processes; Close (not another Run) is the
// only safe next step for it.
func (m *Machine) RunUntil(s *Scenario, horizon sim.Time) *Trace {
	seen := make(map[int]bool, len(s.procs))
	for _, pr := range s.procs {
		if pr.node < 0 || pr.node >= len(m.eps) {
			panic(fmt.Sprintf("scenario: node %d out of range [0,%d)", pr.node, len(m.eps)))
		}
		if seen[pr.node] {
			panic(fmt.Sprintf("scenario: node %d has two programs", pr.node))
		}
		seen[pr.node] = true
	}
	start := m.m.Now()
	startBus := m.m.MemBusOccupancy()
	startCounters := m.snapshot()
	startHists := make(map[string]sim.Histogram)
	for _, name := range m.m.Stats.Histograms() {
		startHists[name] = *m.m.Stats.Histogram(name)
	}
	for _, pr := range s.procs {
		ep := m.eps[pr.node]
		body := pr.body
		m.m.Spawn(pr.node, func(p *sim.Process, _ *machine.Node) {
			ep.p = p
			body(ep)
		})
	}
	end := m.m.Run(horizon)
	tr := &Trace{
		Start:        start,
		End:          end,
		BusOccupancy: m.m.MemBusOccupancy() - startBus,
		Counters:     make(map[string]uint64),
		Histograms:   make(map[string]sim.Histogram),
	}
	for _, name := range m.m.Stats.Counters() {
		if d := m.m.Stats.Get(name) - startCounters[name]; d != 0 {
			tr.Counters[name] = d
		}
	}
	for _, name := range m.m.Stats.Histograms() {
		prev := startHists[name] // zero value for histograms born mid-run
		tr.Histograms[name] = m.m.Stats.Histogram(name).DeltaSince(&prev)
	}
	return tr
}

// snapshot copies the current counter values.
func (m *Machine) snapshot() map[string]uint64 {
	names := m.m.Stats.Counters()
	out := make(map[string]uint64, len(names))
	for _, name := range names {
		out[name] = m.m.Stats.Get(name)
	}
	return out
}

// Trace is one scenario run's typed result.
type Trace struct {
	// Start and End bracket the run in simulated cycles: Start is the
	// clock when Run was called, End the time of the last executed
	// event (for a first run on a fresh machine, End is the runtime).
	Start, End sim.Time
	// BusOccupancy is the memory-bus busy cycles consumed during the
	// run, summed over all nodes.
	BusOccupancy sim.Time
	// Counters holds every statistics counter that moved during the
	// run, as deltas (e.g. "net.msg" network messages, "net.bytes"
	// network payload bytes).
	Counters map[string]uint64
	// Histograms holds every latency histogram's distribution over
	// this run (notably "net.delivery", the fabric's
	// admission-to-delivery distribution). Like Counters, they are
	// per-run deltas, so back-to-back runs stay independent; the
	// window's min/max are reconstructed within the histogram's usual
	// quantile error bound when an earlier run holds the lifetime
	// extremes.
	Histograms map[string]sim.Histogram
}

// Cycles returns the run's simulated duration.
func (t *Trace) Cycles() sim.Time { return t.End - t.Start }

// Counter returns a counter delta (zero if it never moved).
func (t *Trace) Counter(name string) uint64 { return t.Counters[name] }

// Histogram returns a named histogram copy (zero-valued if absent).
func (t *Trace) Histogram(name string) sim.Histogram { return t.Histograms[name] }

// Micros converts the run's duration to microseconds.
func (t *Trace) Micros() float64 { return machine.Microseconds(t.Cycles()) }
