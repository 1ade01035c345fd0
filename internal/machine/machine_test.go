package machine

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/msg"
	"repro/internal/params"
	"repro/internal/sim"
)

// pingPong runs one round-trip of a size-byte message between two
// nodes and returns the round-trip time in cycles.
func pingPong(t *testing.T, cfg params.Config, size, rounds int) sim.Time {
	t.Helper()
	m := New(cfg)
	defer m.Stop()

	const (
		hPing = 1
		hPong = 2
	)
	gotPong := 0
	pong := m.Nodes[1].Msgr
	m.Nodes[1].Msgr.Register(hPing, func(ctx msg.Context) {
		pong.Send(ctx.P, ctx.Src, hPong, ctx.Size, nil)
	})
	m.Nodes[0].Msgr.Register(hPong, func(ctx msg.Context) {
		gotPong++
	})

	var start, end sim.Time
	m.Spawn(0, func(p *sim.Process, n *Node) {
		// Warm-up round to reach steady cache state.
		n.Msgr.Send(p, 1, hPing, size, nil)
		n.Msgr.PollUntil(p, func() bool { return gotPong == 1 })
		start = p.Now()
		for r := 0; r < rounds; r++ {
			n.Msgr.Send(p, 1, hPing, size, nil)
			want := 2 + r
			n.Msgr.PollUntil(p, func() bool { return gotPong == want })
		}
		end = p.Now()
	})
	m.Spawn(1, func(p *sim.Process, n *Node) {
		n.Msgr.PollUntil(p, func() bool { return gotPong == 1+rounds })
	})
	m.Run(sim.Time(1) << 40)
	if gotPong != 1+rounds {
		t.Fatalf("%s: pong count = %d, want %d (deadlock?)", cfg.Name(), gotPong, 1+rounds)
	}
	return (end - start) / sim.Time(rounds)
}

func TestPingPongAllNIsMemoryBus(t *testing.T) {
	rtts := make(map[params.NIKind]sim.Time)
	for _, ni := range params.AllNIs {
		cfg := params.Config{Nodes: 2, NI: ni, Bus: params.MemoryBus}
		rtt := pingPong(t, cfg, 64, 4)
		rtts[ni] = rtt
		t.Logf("%-10s RTT(64B) = %d cycles (%.2f us)", ni, rtt, Microseconds(rtt))
		if rtt < 2*params.NetLatency {
			t.Errorf("%s: RTT %d below network floor", ni, rtt)
		}
		if rtt > 20000 {
			t.Errorf("%s: RTT %d implausibly high", ni, rtt)
		}
	}
	// Paper Fig 6a orderings: every CNI beats NI2w; CNI4 is the worst
	// CNI; the CQ designs are the best.
	for _, ni := range []params.NIKind{params.CNI4, params.CNI16Q, params.CNI512Q, params.CNI16Qm} {
		if rtts[ni] >= rtts[params.NI2w] {
			t.Errorf("%s RTT %d should beat NI2w %d", ni, rtts[ni], rtts[params.NI2w])
		}
	}
	if rtts[params.CNI16Q] > rtts[params.CNI4] {
		t.Errorf("CNI16Q %d should not be slower than CNI4 %d", rtts[params.CNI16Q], rtts[params.CNI4])
	}
}

func TestPingPongAllNIsIOBus(t *testing.T) {
	rtts := make(map[params.NIKind]sim.Time)
	for _, ni := range []params.NIKind{params.NI2w, params.CNI4, params.CNI16Q, params.CNI512Q} {
		cfg := params.Config{Nodes: 2, NI: ni, Bus: params.IOBus}
		rtt := pingPong(t, cfg, 64, 4)
		rtts[ni] = rtt
		t.Logf("%-10s RTT(64B) = %d cycles (%.2f us)", ni, rtt, Microseconds(rtt))
	}
	for _, ni := range []params.NIKind{params.CNI4, params.CNI16Q, params.CNI512Q} {
		if rtts[ni] >= rtts[params.NI2w] {
			t.Errorf("%s RTT %d should beat NI2w %d on the I/O bus", ni, rtts[ni], rtts[params.NI2w])
		}
	}
}

func TestPingPongCacheBusNI2w(t *testing.T) {
	cfg := params.Config{Nodes: 2, NI: params.NI2w, Bus: params.CacheBus}
	rtt := pingPong(t, cfg, 64, 4)
	t.Logf("NI2w@cache RTT(64B) = %d cycles (%.2f us)", rtt, Microseconds(rtt))
	memRtt := pingPong(t, params.Config{Nodes: 2, NI: params.NI2w, Bus: params.MemoryBus}, 64, 4)
	if rtt >= memRtt {
		t.Errorf("cache-bus NI2w RTT %d should beat memory-bus %d", rtt, memRtt)
	}
}

func TestPingPongMessageSizes(t *testing.T) {
	for _, size := range []int{8, 64, 256, 1024} {
		cfg := params.Config{Nodes: 2, NI: params.CNI512Q, Bus: params.MemoryBus}
		rtt := pingPong(t, cfg, size, 2)
		t.Logf("CNI512Q RTT(%dB) = %d cycles", size, rtt)
	}
}

func TestQm16IOBusRejected(t *testing.T) {
	cfg := params.Config{Nodes: 2, NI: params.CNI16Qm, Bus: params.IOBus}
	if err := cfg.Validate(); err == nil {
		t.Fatal("CNI16Qm on the I/O bus should be invalid")
	}
}

func TestManyNodesAllToOne(t *testing.T) {
	// Hot-spot smoke test: every node sends to node 0; exercises
	// backpressure and software flow control without deadlock.
	cfg := params.Config{Nodes: 4, NI: params.CNI16Q, Bus: params.MemoryBus}
	m := New(cfg)
	defer m.Stop()
	const hMsg = 1
	const per = 8
	got := 0
	for _, n := range m.Nodes {
		n.Msgr.Register(hMsg, func(ctx msg.Context) { got++ })
	}
	for id := 1; id < cfg.Nodes; id++ {
		m.Spawn(id, func(p *sim.Process, n *Node) {
			for i := 0; i < per; i++ {
				n.Msgr.Send(p, 0, hMsg, 128, nil)
			}
		})
	}
	m.Spawn(0, func(p *sim.Process, n *Node) {
		n.Msgr.PollUntil(p, func() bool { return got == (cfg.Nodes-1)*per })
	})
	m.Run(sim.Time(1) << 40)
	if got != (cfg.Nodes-1)*per {
		t.Fatalf("received %d messages, want %d", got, (cfg.Nodes-1)*per)
	}
}

func TestNI2wSmallFIFOBackpressure(t *testing.T) {
	// A burst larger than NI2w's FIFO forces network backpressure and
	// the sender's software drain; everything must still arrive.
	cfg := params.Config{Nodes: 2, NI: params.NI2w, Bus: params.MemoryBus}
	m := New(cfg)
	defer m.Stop()
	const hMsg = 1
	got := 0
	m.Nodes[1].Msgr.Register(hMsg, func(ctx msg.Context) { got++ })
	m.Nodes[0].Msgr.Register(hMsg, func(ctx msg.Context) { got++ })
	const burst = 20
	m.Spawn(0, func(p *sim.Process, n *Node) {
		for i := 0; i < burst; i++ {
			n.Msgr.Send(p, 1, hMsg, 200, nil)
		}
	})
	m.Spawn(1, func(p *sim.Process, n *Node) {
		n.Msgr.PollUntil(p, func() bool { return got == burst })
	})
	m.Run(sim.Time(1) << 40)
	if got != burst {
		t.Fatalf("received %d, want %d", got, burst)
	}
	if m.Stats.Get("net.backpressure") == 0 {
		t.Error("expected backpressure events with NI2w's shallow FIFO")
	}
}

func TestStatsOccupancyNonzero(t *testing.T) {
	cfg := params.Config{Nodes: 2, NI: params.CNI16Qm, Bus: params.MemoryBus}
	m := New(cfg)
	defer m.Stop()
	const hMsg = 1
	got := 0
	m.Nodes[1].Msgr.Register(hMsg, func(ctx msg.Context) { got++ })
	m.Spawn(0, func(p *sim.Process, n *Node) { n.Msgr.Send(p, 1, hMsg, 64, nil) })
	m.Spawn(1, func(p *sim.Process, n *Node) {
		n.Msgr.PollUntil(p, func() bool { return got == 1 })
	})
	m.Run(sim.Time(1) << 40)
	if m.MemBusOccupancy() == 0 {
		t.Error("memory-bus occupancy should be nonzero")
	}
	if m.Stats.Get("net.msg") != 1 {
		t.Errorf("net.msg = %d, want 1", m.Stats.Get("net.msg"))
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() sim.Time {
		cfg := params.Config{Nodes: 3, NI: params.CNI512Q, Bus: params.MemoryBus}
		m := New(cfg)
		defer m.Stop()
		const hMsg = 1
		got := 0
		for _, n := range m.Nodes {
			n.Msgr.Register(hMsg, func(ctx msg.Context) { got++ })
		}
		for id := 1; id < 3; id++ {
			m.Spawn(id, func(p *sim.Process, n *Node) {
				for i := 0; i < 5; i++ {
					n.Msgr.Send(p, 0, hMsg, 100, nil)
				}
			})
		}
		m.Spawn(0, func(p *sim.Process, n *Node) {
			n.Msgr.PollUntil(p, func() bool { return got == 10 })
		})
		return m.Run(sim.Time(1) << 40)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic: %d vs %d cycles", a, b)
	}
}

func ExampleMicroseconds() {
	fmt.Printf("%.1f", Microseconds(400))
	// Output: 2.0
}

// TestShardDriverForEveryMachine pins the one-driver contract: every
// machine runs on a sim.ShardSet with Eng as shard 0's engine and each
// node bound to its shard's engine. Small and flat machines get one
// shard; only useShards — a large torus with Shards set — partitions
// the machine and selects the sharded event order.
func TestShardDriverForEveryMachine(t *testing.T) {
	cases := []struct {
		nodes, shards int
		topo          params.Topology
		wantShards    int
		sharded       bool
	}{
		{16, 4, params.TopoTorus, 1, false},
		{64, 4, params.TopoFlat, 1, false},
		{64, 0, params.TopoTorus, 1, false},
		{64, 4, params.TopoTorus, 4, true},
	}
	for _, c := range cases {
		m := New(params.Config{Nodes: c.nodes, NI: params.CNI16Q, Bus: params.MemoryBus,
			Topology: c.topo, Shards: c.shards})
		name := fmt.Sprintf("%d-node %v Shards=%d", c.nodes, c.topo, c.shards)
		if got := m.shards.Shards(); got != c.wantShards {
			t.Errorf("%s: %d shards, want %d", name, got, c.wantShards)
		}
		if m.Sharded() != c.sharded {
			t.Errorf("%s: Sharded() = %v, want %v", name, m.Sharded(), c.sharded)
		}
		if m.Eng != m.shards.Engine(0) {
			t.Errorf("%s: Eng is not shard 0's engine", name)
		}
		woke := make([]bool, c.nodes) // one writer per slot: shards run concurrently
		for id := range m.Nodes {
			m.Spawn(id, func(p *sim.Process, n *Node) {
				if p.Engine() != m.shards.Engine(id) {
					t.Errorf("%s: node %d runs on another shard's engine", name, id)
				}
				p.Sleep(sim.Time(id))
				woke[id] = true
			})
		}
		end := m.Run(1000)
		if slices.Contains(woke, false) || end != sim.Time(c.nodes-1) || m.Now() != end {
			t.Errorf("%s: woke %v, Run = %d, Now = %d", name, woke, end, m.Now())
		}
		m.Stop()
	}
}

// TestShardScheduledSumsEngines: Counters().Scheduled counts every
// shard engine's events, which on a one-shard machine are Eng's alone.
func TestShardScheduledSumsEngines(t *testing.T) {
	for _, c := range []struct{ nodes, shards int }{{16, 0}, {64, 4}} {
		m := New(params.Config{Nodes: c.nodes, NI: params.CNI16Q, Bus: params.MemoryBus,
			Topology: params.TopoTorus, Shards: c.shards})
		for id := range m.Nodes {
			m.Spawn(id, func(p *sim.Process, n *Node) {
				n.Msgr.Send(p, (id+1)%c.nodes, 1, 64, nil)
			})
			m.Nodes[id].Msgr.Register(1, func(msg.Context) {})
		}
		m.Run(20_000)
		var sum uint64
		seen := map[*sim.Engine]bool{}
		for id := range m.Nodes {
			if e := m.shards.Engine(id); !seen[e] {
				seen[e] = true
				sum += e.Scheduled()
			}
		}
		got := m.Counters().Scheduled
		if got != sum || got == 0 {
			t.Errorf("%d nodes, Shards=%d: Scheduled = %d, want the engines' sum %d", c.nodes, c.shards, got, sum)
		}
		if c.shards == 0 && got != m.Eng.Scheduled() {
			t.Errorf("16 nodes: Scheduled = %d, want Eng's %d", got, m.Eng.Scheduled())
		}
		m.Stop()
	}
}

// TestAddressMapFitsCacheTags: the cache stores 32-bit block numbers
// as tags, so every region of the node address map must end below
// 2^32 blocks.
func TestAddressMapFitsCacheTags(t *testing.T) {
	for _, r := range []struct {
		name       string
		base, size uint64
	}{
		{"dram", DRAMBase, DRAMSize},
		{"ni.send", DevSendBase, DevRegionSz},
		{"ni.recv", DevRecvBase, DevRegionSz},
	} {
		if last := (r.base + r.size - 1) / params.BlockBytes; last > math.MaxUint32 {
			t.Errorf("%s region ends at block %#x, beyond a 32-bit cache tag", r.name, last)
		}
	}
}
