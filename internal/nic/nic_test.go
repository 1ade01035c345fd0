package nic_test

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/params"
	"repro/internal/sim"
)

// sendN runs a one-way stream of n size-byte messages from node 0 to
// node 1 on a fresh machine and returns the machine for stat checks.
func sendN(t *testing.T, cfg params.Config, n, size int) *machine.Machine {
	t.Helper()
	m := machine.New(cfg)
	const hMsg = 1
	got := 0
	m.Nodes[1].Msgr.Register(hMsg, func(ctx msg.Context) { got++ })
	m.Nodes[0].Msgr.Register(hMsg, func(ctx msg.Context) { got++ })
	m.Spawn(0, func(p *sim.Process, nd *machine.Node) {
		for i := 0; i < n; i++ {
			nd.Msgr.Send(p, 1, hMsg, size, nil)
		}
	})
	m.Spawn(1, func(p *sim.Process, nd *machine.Node) {
		nd.Msgr.PollUntil(p, func() bool { return got == n })
	})
	m.Run(sim.Time(1) << 42)
	m.Stop()
	if got != n {
		t.Fatalf("%s: delivered %d of %d messages", cfg.Name(), got, n)
	}
	return m
}

func TestEveryNIDeliversEveryMessage(t *testing.T) {
	for _, ni := range params.AllNIs {
		for _, b := range []params.BusKind{params.MemoryBus, params.IOBus} {
			cfg := params.Config{Nodes: 2, NI: ni, Bus: b}
			if cfg.Validate() != nil {
				continue
			}
			sendN(t, cfg, 25, 100)
		}
	}
	sendN(t, params.Config{Nodes: 2, NI: params.NI2w, Bus: params.CacheBus}, 25, 100)
}

func TestNI2wUsesOnlyUncachedAccess(t *testing.T) {
	m := sendN(t, params.Config{Nodes: 2, NI: params.NI2w, Bus: params.MemoryBus}, 10, 64)
	if m.Stats.Get("unc.load.memory") == 0 || m.Stats.Get("unc.store.memory") == 0 {
		t.Error("NI2w should poll and store uncached")
	}
	// The only coherent traffic is the messaging layer touching its
	// user buffer, never NI queues: no device-supplied transfers.
	if m.Stats.Get("node1.ni.recv.msg") != 10 {
		t.Errorf("recv.msg = %d", m.Stats.Get("node1.ni.recv.msg"))
	}
}

func TestNI2wWordCountScalesWithSize(t *testing.T) {
	// An 8-byte payload is 20 header+payload bytes = 3 words; 244 bytes
	// is 32 words. Uncached stores per message should scale.
	small := sendN(t, params.Config{Nodes: 2, NI: params.NI2w, Bus: params.MemoryBus}, 4, 8)
	big := sendN(t, params.Config{Nodes: 2, NI: params.NI2w, Bus: params.MemoryBus}, 4, 244)
	s := small.Stats.Get("unc.store.memory")
	b := big.Stats.Get("unc.store.memory")
	if b <= s*3 {
		t.Errorf("244B messages should cost far more uncached stores: small=%d big=%d", s, b)
	}
}

func TestCNI4HandshakeInvalidates(t *testing.T) {
	m := sendN(t, params.Config{Nodes: 2, NI: params.CNI4, Bus: params.MemoryBus}, 10, 64)
	// Each received message's pop triggers device CI transactions on
	// the CDR blocks the processor cached (one block for 64+12 bytes
	// ... two blocks).
	if m.Stats.Get("tx.CI") < 10 {
		t.Errorf("tx.CI = %d, want >= 10 (explicit clear handshake)", m.Stats.Get("tx.CI"))
	}
}

func TestCNI4SendPullsBlocks(t *testing.T) {
	m := sendN(t, params.Config{Nodes: 2, NI: params.CNI4, Bus: params.MemoryBus}, 8, 200)
	// 200+12 bytes = 4 blocks per message; the device pulls each with a
	// coherent read. Plus the receiver's fills.
	if m.Stats.Get("tx.CR") < 8*4 {
		t.Errorf("tx.CR = %d, want >= 32", m.Stats.Get("tx.CR"))
	}
}

func TestCQPollIsCachedWhileIdle(t *testing.T) {
	// A receiver polling an empty CQ must hit in its cache: run a
	// machine with no traffic and let node 1 poll many times.
	cfg := params.Config{Nodes: 2, NI: params.CNI512Q, Bus: params.MemoryBus}
	m := machine.New(cfg)
	m.Spawn(1, func(p *sim.Process, nd *machine.Node) {
		for i := 0; i < 100; i++ {
			if got := nd.NI.TryRecv(p); got != nil {
				t.Error("unexpected message")
			}
		}
	})
	m.Run(sim.Time(1) << 40)
	m.Stop()
	hits := m.Stats.Get("node1.cache.load.hit")
	misses := m.Stats.Get("node1.cache.load.miss")
	if misses > 1 {
		t.Errorf("idle polling missed %d times, want <= 1 (first touch only)", misses)
	}
	if hits < 99 {
		t.Errorf("idle polling hit %d times, want >= 99", hits)
	}
}

func TestCQValidBitTrafficBudget(t *testing.T) {
	// §2.2: "each block of a message requires one invalidation, to
	// obtain write permission for the sender, and one read miss, to
	// fetch the block for the receiver." For n 64-byte-payload
	// messages (2 blocks each) in steady state that is ~2n CRIs from
	// the sender and ~2n CRs for receiver fills plus 2n device pulls.
	n := 16
	m := sendN(t, params.Config{Nodes: 2, NI: params.CNI512Q, Bus: params.MemoryBus}, n, 64)
	cri := int(m.Stats.Get("tx.CRI"))
	if cri < 2*n-4 || cri > 2*n+8 {
		t.Errorf("tx.CRI = %d, want ~%d (one invalidation per block)", cri, 2*n)
	}
	// Sense reverse means the receiver never writes queue entries: the
	// receiver-side store misses should stay O(1), not O(n).
	misses := m.Stats.Get("node1.cache.store.miss")
	if misses > 6 {
		t.Errorf("receiver store misses = %d, want O(1) (sense reverse)", misses)
	}
}

func TestVirtualPollingPipelinesPulls(t *testing.T) {
	// Multi-block messages should trigger hint pulls (invalidation of
	// block k+1 pulls block k early).
	m := sendN(t, params.Config{Nodes: 2, NI: params.CNI512Q, Bus: params.MemoryBus}, 8, 244)
	if m.Stats.Get("node0.ni.send.hintpull") == 0 {
		t.Error("expected virtual-polling hint pulls for 4-block messages")
	}
}

func TestQmOverflowWritesBack(t *testing.T) {
	// Flood CNI16Qm's 16-block receive cache: a burst of 4-block
	// messages with a receiver that only drains at the end. The device
	// must spill to memory.
	cfg := params.Config{Nodes: 2, NI: params.CNI16Qm, Bus: params.MemoryBus}
	m := machine.New(cfg)
	const hMsg = 1
	got := 0
	m.Nodes[1].Msgr.Register(hMsg, func(ctx msg.Context) { got++ })
	const burst = 12
	m.Spawn(0, func(p *sim.Process, nd *machine.Node) {
		for i := 0; i < burst; i++ {
			nd.Msgr.Send(p, 1, hMsg, 244, nil)
		}
	})
	m.Spawn(1, func(p *sim.Process, nd *machine.Node) {
		// Stay busy while the burst lands, then drain.
		nd.CPU.Compute(p, 100000)
		nd.Msgr.PollUntil(p, func() bool { return got == burst })
	})
	m.Run(sim.Time(1) << 42)
	m.Stop()
	if got != burst {
		t.Fatalf("got %d of %d", got, burst)
	}
	if m.Stats.Get("node1.ni.recv.overflowWB") == 0 {
		t.Error("expected device-cache overflow writebacks to memory")
	}
}

func TestQmNoBackpressureUnderBurst(t *testing.T) {
	// The same burst must not back up into the network for CNI16Qm
	// (its queue overflows to memory), unlike CNI16Q.
	run := func(ni params.NIKind) uint64 {
		cfg := params.Config{Nodes: 2, NI: ni, Bus: params.MemoryBus}
		m := machine.New(cfg)
		const hMsg = 1
		got := 0
		m.Nodes[1].Msgr.Register(hMsg, func(ctx msg.Context) { got++ })
		const burst = 12
		m.Spawn(0, func(p *sim.Process, nd *machine.Node) {
			for i := 0; i < burst; i++ {
				nd.Msgr.Send(p, 1, hMsg, 244, nil)
			}
		})
		m.Spawn(1, func(p *sim.Process, nd *machine.Node) {
			nd.CPU.Compute(p, 100000)
			nd.Msgr.PollUntil(p, func() bool { return got == burst })
		})
		m.Run(sim.Time(1) << 42)
		m.Stop()
		return m.Stats.Get("net.backpressure")
	}
	if bp := run(params.CNI16Qm); bp != 0 {
		t.Errorf("CNI16Qm backpressure = %d, want 0 (overflow to memory)", bp)
	}
	if bp := run(params.CNI16Q); bp == 0 {
		t.Error("CNI16Q should hit backpressure under a 12-message burst")
	}
}

func TestSnarfingReducesReceiverMisses(t *testing.T) {
	// Snarfing only pays off once the receive queue wraps (the
	// processor's direct-mapped frames then hold the entry blocks'
	// tags in Invalid state) and the device cache is overflowing, so
	// stream enough 4-block messages to lap the 128-entry queue with
	// a consumer that lags slightly.
	run := func(snarf bool) (snarfs, misses uint64) {
		cfg := params.Config{Nodes: 2, NI: params.CNI16Qm, Bus: params.MemoryBus, Snarfing: snarf}
		m := machine.New(cfg)
		const hMsg = 1
		got := 0
		m.Nodes[1].Msgr.Register(hMsg, func(ctx msg.Context) { got++ })
		const nmsg = 160
		m.Spawn(0, func(p *sim.Process, nd *machine.Node) {
			for i := 0; i < nmsg; i++ {
				nd.Msgr.Send(p, 1, hMsg, 244, nil)
			}
		})
		m.Spawn(1, func(p *sim.Process, nd *machine.Node) {
			for got < nmsg {
				nd.CPU.Compute(p, 300) // lag behind the sender
				nd.Msgr.Poll(p)
			}
		})
		m.Run(sim.Time(1) << 42)
		m.Stop()
		if got != nmsg {
			t.Fatalf("got %d", got)
		}
		return m.Stats.Get("node1.cache.snarf"), m.Stats.Get("node1.cache.load.miss")
	}
	s0, m0 := run(false)
	s1, m1 := run(true)
	if s0 != 0 {
		t.Errorf("snarf counter = %d without snarfing", s0)
	}
	if s1 == 0 {
		t.Error("snarfing enabled but never captured a writeback")
	}
	if m1 >= m0 {
		t.Errorf("snarfing should reduce receiver misses: %d -> %d", m0, m1)
	}
}

func TestLazyPointerAblationAddsMisses(t *testing.T) {
	base := sendN(t, params.Config{Nodes: 2, NI: params.CNI512Q, Bus: params.MemoryBus}, 30, 64)
	noLazy := sendN(t, params.Config{Nodes: 2, NI: params.CNI512Q, Bus: params.MemoryBus, NoLazyPointers: true}, 30, 64)
	b := base.Stats.Get("node0.cache.load.miss")
	n := noLazy.Stats.Get("node0.cache.load.miss")
	if n <= b {
		t.Errorf("disabling lazy pointers should add sender misses: base=%d nolazy=%d", b, n)
	}
}

func TestValidBitAblationAddsTailMisses(t *testing.T) {
	base := sendN(t, params.Config{Nodes: 2, NI: params.CNI512Q, Bus: params.MemoryBus}, 30, 64)
	noVB := sendN(t, params.Config{Nodes: 2, NI: params.CNI512Q, Bus: params.MemoryBus, NoValidBits: true}, 30, 64)
	b := base.Stats.Get("tx.CI")
	n := noVB.Stats.Get("tx.CI")
	if n <= b {
		t.Errorf("tail-pointer polling should add device invalidations: base=%d novb=%d", b, n)
	}
}

func TestSenseReverseAblationAddsOwnershipTraffic(t *testing.T) {
	base := sendN(t, params.Config{Nodes: 2, NI: params.CNI512Q, Bus: params.MemoryBus}, 30, 64)
	noSR := sendN(t, params.Config{Nodes: 2, NI: params.CNI512Q, Bus: params.MemoryBus, NoSenseReverse: true}, 30, 64)
	b := base.Stats.Get("node1.cache.store.miss")
	n := noSR.Stats.Get("node1.cache.store.miss")
	if n < b+25 {
		t.Errorf("explicit clears should cost ~1 ownership transfer per message: base=%d nosr=%d", b, n)
	}
}

func TestQueueSizeOverride(t *testing.T) {
	// A CNI512Q constrained to 16 blocks behaves like CNI16Q: bursts
	// hit backpressure.
	cfg := params.Config{Nodes: 2, NI: params.CNI512Q, Bus: params.MemoryBus, QueueBlocksOverride: 16}
	m := machine.New(cfg)
	const hMsg = 1
	got := 0
	m.Nodes[1].Msgr.Register(hMsg, func(ctx msg.Context) { got++ })
	m.Spawn(0, func(p *sim.Process, nd *machine.Node) {
		for i := 0; i < 12; i++ {
			nd.Msgr.Send(p, 1, hMsg, 244, nil)
		}
	})
	m.Spawn(1, func(p *sim.Process, nd *machine.Node) {
		nd.CPU.Compute(p, 100000)
		nd.Msgr.PollUntil(p, func() bool { return got == 12 })
	})
	m.Run(sim.Time(1) << 42)
	m.Stop()
	if got != 12 {
		t.Fatalf("got %d", got)
	}
	if m.Stats.Get("net.backpressure") == 0 {
		t.Error("16-block override should backpressure like CNI16Q")
	}
}
