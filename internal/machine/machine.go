// Package machine assembles the paper's simulated parallel machine
// (§4.1): N nodes, each with a 200 MHz dual-issue processor, a 256 KB
// direct-mapped cache on a 100 MHz coherent memory bus, optionally a
// 50 MHz coherent I/O bus behind a bridge, and one of the five network
// interfaces; nodes are connected by a pluggable sliding-window
// interconnect — the paper's fixed-latency flat network by default,
// or a contention-modelled 2D torus (params.Config.Topology).
package machine

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/msg"
	"repro/internal/network"
	"repro/internal/nic"
	"repro/internal/params"
	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Node-local address map. Every node has an identical private
// layout; queue regions for device-homed NIs sit outside DRAM, the
// memory-homed CNI16Qm queue lives in pinned DRAM.
// The processor cache is 256 KB direct-mapped, so addresses collide
// when they share (addr/64) mod 4096. The bases below stagger every
// region into a distinct index range: user data gets indexes
// 0..1023, the messaging buffer 1024.., software shadows 2048..,
// the send queue 2112.., and the receive queue 2688.. — mirroring an
// operating system laying out pinned NI pages to avoid conflicting
// with itself. (Device-homed and memory-homed queues reuse the same
// index ranges; a configuration only ever has one of them.)
const (
	DRAMBase   = 0x0000_0000
	DRAMSize   = 0x1000_0000 // 256 MB
	UserBase   = 0x0100_0000 // application working set (cache indexes 0..1023)
	MsgBufBase = 0x0601_0000 // messaging-layer staging buffers (1024..)
	ShadowBase = 0x0702_0000 // CQ software shadow pointers (2048..)
	QmSendBase = 0x0802_1000 // CNI16Qm send queue, memory-homed (2112..)
	QmRecvBase = 0x0902_a000 // CNI16Qm receive queue, memory-homed (2688..)

	DevSendBase = 0x4002_1000 // device-homed send region (2112..)
	DevRecvBase = 0x4102_a000 // device-homed receive region (2688..)
	DevRegionSz = 0x0000_9000 // 36 KB window: pointers + up to 512 blocks
)

// Node is one processor + NI endpoint.
type Node struct {
	ID     int
	Fabric *bus.Fabric
	Mem    *cache.Memory
	Cache  *cache.Cache
	CPU    *proc.CPU
	NI     nic.NI
	Msgr   *msg.Messenger
}

// Machine is the whole simulated system.
type Machine struct {
	Cfg   params.Config
	Eng   *sim.Engine
	Stats *sim.Stats
	Net   network.Interconnect
	Nodes []*Node

	// shards drives every machine. When Cfg selects the sharded path
	// (useShards) it holds Cfg.Shards engines with the torus hop
	// latency as lookahead; otherwise it holds one engine with
	// sim.Forever lookahead, so nothing crosses and a Run is one epoch
	// in the plain engine's (time, seq) order. Eng is shard 0's engine,
	// and each node's components are bound to the engine owning that
	// node.
	shards *sim.ShardSet

	// Rec/Smp are the telemetry recorder and sampler, nil unless
	// Cfg.Trace activates them (internal/trace).
	Rec *trace.Recorder
	Smp *trace.Sampler
}

// useShards reports whether cfg selects the sharded event order: an
// explicit Shards setting, a torus fabric (it defines the cross-shard
// lookahead), and a machine big enough that the partition is
// meaningful. Everything else runs one shard that never crosses, in
// the serial order. This is the only place the two orders fork.
func useShards(cfg params.Config) bool {
	return cfg.Shards >= 1 && cfg.Nodes > 16 && cfg.Topology == params.TopoTorus
}

// newInterconnect builds the fabric cfg.Topology selects.
func newInterconnect(cfg params.Config, eng *sim.Engine, st *sim.Stats) network.Interconnect {
	if cfg.Topology == params.TopoTorus {
		return network.NewTorus(eng, st, cfg.Nodes)
	}
	return network.New(eng, st, cfg.Nodes)
}

// New builds a machine for cfg. It panics on invalid configurations
// (use cfg.Validate first for a friendly error).
func New(cfg params.Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sharded := useShards(cfg)
	// By default one shard that never crosses: with sim.Forever
	// lookahead an epoch's end S+Forever-1 stays below 2^64 for any
	// S < Forever, so it cannot overflow and is clamped to the horizon —
	// every Run is a single epoch popping the plain engine's
	// (time, seq) order.
	count, lookahead := 1, sim.Forever
	if sharded {
		// The torus's minimum cross-node delay is one hop's latency
		// (the window-credit ack of a one-hop neighbour); link arrivals
		// are slower still (occupancy + hop latency). That bound is the
		// conservative lookahead.
		count, lookahead = cfg.Shards, sim.Time(params.TorusHopLatency)
	}
	shards := sim.NewShardSet(cfg.Nodes, count, lookahead)
	eng := shards.Engine(0)
	st := sim.NewStats()
	m := &Machine{
		Cfg:    cfg,
		Eng:    eng,
		Stats:  st,
		shards: shards,
		Net:    newInterconnect(cfg, eng, st),
	}
	var inj *fault.Injector
	if cfg.Faults.Injects() {
		inj = fault.New(st, cfg.Nodes, cfg.Faults)
	}
	if sharded {
		// The sharded event order: cross-shard fabric events, the
		// concurrent stats representation (empty-min sentinel, mode
		// flag — a one-shard reference run must snapshot byte-equal to
		// any other shard count), and per-destination fault streams.
		m.Net.(*network.Torus).AttachShards(shards)
		st.MarkConcurrent()
		if inj != nil {
			inj.Shard()
		}
	}
	if inj != nil {
		m.Net.AttachFaults(inj)
	}
	if cfg.Trace.Active() {
		m.Rec = trace.NewRecorder(eng, cfg.Nodes, cfg.Trace.Ring())
		m.Rec.Shard(shards)
		m.Net.AttachTrace(m.Rec)
	}
	for id := 0; id < cfg.Nodes; id++ {
		m.Nodes = append(m.Nodes, m.buildNode(id))
	}
	// Frames retire at the receiver, so per-node pools drain at every
	// sender while a hotspot sink hoards boxes; pooling is shared at
	// engine-ownership granularity instead. Get/put always run under
	// the owning messenger's engine, so a pool spans exactly the nodes
	// of one shard (engines run concurrently within an epoch and must
	// never race on a pool).
	pools := make([]*msg.FramePool, shards.Shards())
	for id, n := range m.Nodes {
		si := shards.ShardOf(id)
		if pools[si] == nil {
			pools[si] = &msg.FramePool{}
		}
		n.Msgr.ShareFramePool(pools[si])
	}
	if cfg.Trace.SampleEvery > 0 {
		m.Smp = trace.NewSampler(eng, sim.Time(cfg.Trace.SampleEvery))
		m.registerSamples()
	}
	return m
}

// registerSamples wires the sampler's columns: fabric gauges (window
// occupancy, edge backlog, link occupancy and queue depths on the
// torus), the transport's retransmit backlog, and the hot counters as
// per-interval deltas. Probes read state; they never mutate it.
func (m *Machine) registerSamples() {
	type fabricGauges interface {
		TotalInFlight() int
		TotalPending() int
	}
	if fg, ok := m.Net.(fabricGauges); ok {
		m.Smp.Gauge("window.inflight", func() float64 { return float64(fg.TotalInFlight()) })
		m.Smp.Gauge("edge.pending", func() float64 { return float64(fg.TotalPending()) })
	}
	if t, ok := m.Net.(*network.Torus); ok {
		m.Smp.Gauge("links.busy", func() float64 {
			n := 0
			for li := 0; li < t.Links(); li++ {
				if t.LinkBusy(li) {
					n++
				}
			}
			return float64(n)
		})
		m.Smp.Gauge("links.queued", func() float64 {
			n := 0
			for li := 0; li < t.Links(); li++ {
				n += t.LinkQueueLen(li)
			}
			return float64(n)
		})
		for li := 0; li < t.Links(); li++ {
			li := li
			m.Smp.Gauge("linkq."+t.LinkName(li), func() float64 {
				return float64(t.LinkQueueLen(li))
			})
		}
	}
	m.Smp.Gauge("retx.backlog", func() float64 {
		n := 0
		for _, nd := range m.Nodes {
			n += nd.Msgr.RetxBacklog()
		}
		return float64(n)
	})
	for _, name := range []string{"net.msg", "net.bytes", "net.window.stall", "net.backpressure"} {
		m.Smp.Counter(name, m.Stats.Counter(name))
	}
	if m.Cfg.Topology == params.TopoTorus {
		m.Smp.Counter("net.torus.hop", m.Stats.Counter("net.torus.hop"))
		m.Smp.Counter("net.torus.link.wait", m.Stats.Counter("net.torus.link.wait"))
	}
	if m.Cfg.Faults.Active() {
		m.Smp.Counter("net.retransmits", m.Stats.Counter("net.retransmits"))
		m.Smp.Counter("net.acks", m.Stats.Counter("net.acks"))
	}
}

// nodeEng returns the engine owning node id.
func (m *Machine) nodeEng(id int) *sim.Engine { return m.shards.Engine(id) }

func (m *Machine) buildNode(id int) *Node {
	cfg := m.Cfg
	eng := m.nodeEng(id)
	name := fmt.Sprintf("node%d", id)
	withIO := cfg.Bus == params.IOBus
	fab := bus.NewFabric(eng, m.Stats, name, withIO)
	mem := cache.NewMemory(fab, name+".mem")
	fab.AddRegion(bus.Region{
		Name: name + ".dram", Base: DRAMBase, Size: DRAMSize,
		Home: mem, Loc: params.MemoryBus, Cachable: true,
	})
	pc := cache.New(eng, m.Stats, fab, name+".cache", params.ProcCacheBytes)
	pc.Snarf = cfg.Snarfing
	cpu := proc.New(eng, m.Stats, fab, pc, id, name+".cpu")

	sendBase, recvBase := uint64(DevSendBase), uint64(DevRecvBase)
	if cfg.NI.MemoryHomed() {
		sendBase, recvBase = QmSendBase, QmRecvBase
	}
	ni := nic.New(nic.Deps{
		Eng: eng, Stats: m.Stats, Fabric: fab, CPU: cpu, Net: m.Net,
		NodeID: id, Loc: cfg.Bus, Cfg: cfg,
		SendQBase: sendBase, RecvQBase: recvBase, ShadowBase: ShadowBase,
	})
	if cfg.NI == params.CNI4 || (cfg.NI.IsCQ() && !cfg.NI.MemoryHomed()) {
		// Device-homed cachable regions (CDRs or CQs).
		fab.AddRegion(bus.Region{
			Name: name + ".ni.send", Base: DevSendBase, Size: DevRegionSz,
			Home: ni, Loc: cfg.Bus, Cachable: true,
		})
		fab.AddRegion(bus.Region{
			Name: name + ".ni.recv", Base: DevRecvBase, Size: DevRegionSz,
			Home: ni, Loc: cfg.Bus, Cachable: true,
		})
	}
	m.Net.Register(id, ni)
	msgr := msg.New(id, cpu, ni, m.Stats, MsgBufBase, cfg.Faults)
	if m.Rec != nil {
		msgr.AttachTrace(m.Rec)
	}
	return &Node{ID: id, Fabric: fab, Mem: mem, Cache: pc, CPU: cpu, NI: ni, Msgr: msgr}
}

// Spawn starts body as node id's application process (on the engine
// owning that node).
func (m *Machine) Spawn(id int, body func(p *sim.Process, n *Node)) {
	n := m.Nodes[id]
	m.nodeEng(id).Spawn(fmt.Sprintf("node%d.app", id), func(p *sim.Process) {
		body(p, n)
	})
}

// Sharded reports whether this machine runs in the sharded event
// order (useShards).
func (m *Machine) Sharded() bool { return useShards(m.Cfg) }

// Now returns the current simulated time (after Run, the global
// maximum across shards).
func (m *Machine) Now() sim.Time { return m.shards.Now() }

// Run drains the event queue (or stops at horizon) and returns the
// final simulated time in cycles. The sampler, when configured, is
// re-armed here so back-to-back runs keep sampling (its tick stops
// itself at quiescence to let the queue drain).
func (m *Machine) Run(horizon sim.Time) sim.Time {
	if m.Smp != nil {
		m.Smp.Ensure()
	}
	return m.shards.Run(horizon)
}

// Scheduled returns how many events the engines have scheduled since
// construction (sim.Engine.Scheduled), summed over shards.
func (m *Machine) Scheduled() uint64 { return m.shards.Scheduled() }

// Probed returns how many process wakes the engines handled as
// spin probes (sim.Engine.Probed), summed over shards.
func (m *Machine) Probed() uint64 { return m.shards.Probed() }

// Resumes returns how many coroutine resumes the engines' Run loops
// made (sim.Engine.Resumes), summed over shards.
func (m *Machine) Resumes() uint64 { return m.shards.Resumes() }

// SelfWakes returns how many coroutine wakes the engines returned
// inline to the parking process (sim.Engine.SelfWakes), summed over
// shards.
func (m *Machine) SelfWakes() uint64 { return m.shards.SelfWakes() }

// Stop unwinds the app processes; call once after Run.
func (m *Machine) Stop() { m.shards.Stop() }

// MemBusOccupancy returns total busy cycles summed over all nodes'
// memory buses (§5.2's occupancy metric).
func (m *Machine) MemBusOccupancy() sim.Time {
	var total sim.Time
	for id := range m.Nodes {
		total += m.Stats.Busy(fmt.Sprintf("node%d.membus", id)).Total()
	}
	return total
}

// Microseconds converts cycles to microseconds at 200 MHz.
func Microseconds(cycles sim.Time) float64 {
	return float64(cycles) / params.CPUMHz
}
