package msg_test

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/params"
	"repro/internal/sim"
)

func twoNode(t *testing.T) *machine.Machine {
	t.Helper()
	return machine.New(params.Config{Nodes: 2, NI: params.CNI512Q, Bus: params.MemoryBus})
}

func TestFragmentationCounts(t *testing.T) {
	cases := map[int]uint64{
		0:    1,
		8:    1,
		244:  1,
		245:  2,
		1024: 5,
		4096: 17,
	}
	for size, frags := range cases {
		m := twoNode(t)
		const h = 100
		got := 0
		m.Nodes[1].Msgr.Register(h, func(ctx msg.Context) {
			got++
			if ctx.Size != size {
				t.Errorf("size %d: handler saw %d", size, ctx.Size)
			}
		})
		m.Spawn(0, func(p *sim.Process, n *machine.Node) { n.Msgr.Send(p, 1, h, size, nil) })
		m.Spawn(1, func(p *sim.Process, n *machine.Node) {
			n.Msgr.PollUntil(p, func() bool { return got == 1 })
		})
		m.Run(sim.Forever)
		m.Stop()
		if got != 1 {
			t.Fatalf("size %d: handler ran %d times, want 1 (after reassembly)", size, got)
		}
		if nm := m.Stats.Get("net.msg"); nm != frags {
			t.Errorf("size %d: %d network messages, want %d", size, nm, frags)
		}
	}
}

func TestPayloadDelivered(t *testing.T) {
	m := twoNode(t)
	const h = 100
	var got any
	m.Nodes[1].Msgr.Register(h, func(ctx msg.Context) { got = ctx.Payload })
	m.Spawn(0, func(p *sim.Process, n *machine.Node) {
		n.Msgr.Send(p, 1, h, 32, "hello")
	})
	m.Spawn(1, func(p *sim.Process, n *machine.Node) {
		n.Msgr.PollUntil(p, func() bool { return got != nil })
	})
	m.Run(sim.Forever)
	m.Stop()
	if got != "hello" {
		t.Fatalf("payload = %v", got)
	}
}

func TestHandlerSeesSource(t *testing.T) {
	m := machine.New(params.Config{Nodes: 3, NI: params.CNI512Q, Bus: params.MemoryBus})
	const h = 100
	var srcs []int
	m.Nodes[0].Msgr.Register(h, func(ctx msg.Context) { srcs = append(srcs, ctx.Src) })
	for id := 1; id <= 2; id++ {
		m.Spawn(id, func(p *sim.Process, n *machine.Node) {
			n.Msgr.Send(p, 0, h, 16, nil)
		})
	}
	m.Spawn(0, func(p *sim.Process, n *machine.Node) {
		n.Msgr.PollUntil(p, func() bool { return len(srcs) == 2 })
	})
	m.Run(sim.Forever)
	m.Stop()
	seen := map[int]bool{}
	for _, s := range srcs {
		seen[s] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("sources = %v", srcs)
	}
}

func TestSelfSendPanics(t *testing.T) {
	m := twoNode(t)
	caught := false
	m.Spawn(0, func(p *sim.Process, n *machine.Node) {
		defer func() { caught = recover() != nil }()
		n.Msgr.Send(p, 0, 100, 8, nil)
	})
	m.Run(sim.Forever)
	m.Stop()
	if !caught {
		t.Fatal("self-send should panic")
	}
}

func TestUnknownHandlerPanics(t *testing.T) {
	m := twoNode(t)
	caught := false
	m.Spawn(0, func(p *sim.Process, n *machine.Node) {
		n.Msgr.Send(p, 1, 999, 8, nil)
	})
	m.Spawn(1, func(p *sim.Process, n *machine.Node) {
		defer func() { caught = recover() != nil }()
		n.Msgr.PollUntil(p, func() bool { return false })
	})
	m.Run(sim.Forever)
	m.Stop()
	if !caught {
		t.Fatal("dispatch to unregistered handler should panic")
	}
}

func TestInterleavedSendersReassembleCorrectly(t *testing.T) {
	// Two senders stream multi-fragment messages to one receiver; the
	// (src, id) reassembly keys must keep them separate.
	m := machine.New(params.Config{Nodes: 3, NI: params.CNI512Q, Bus: params.MemoryBus})
	const h = 100
	var sizes []int
	m.Nodes[0].Msgr.Register(h, func(ctx msg.Context) { sizes = append(sizes, ctx.Size) })
	const per = 5
	for id := 1; id <= 2; id++ {
		id := id
		m.Spawn(id, func(p *sim.Process, n *machine.Node) {
			for i := 0; i < per; i++ {
				n.Msgr.Send(p, 0, h, 500+id, nil) // 3 fragments each
			}
		})
	}
	m.Spawn(0, func(p *sim.Process, n *machine.Node) {
		n.Msgr.PollUntil(p, func() bool { return len(sizes) == 2*per })
	})
	m.Run(sim.Forever)
	m.Stop()
	count := map[int]int{}
	for _, s := range sizes {
		count[s]++
	}
	if count[501] != per || count[502] != per {
		t.Fatalf("reassembly mixed streams: %v", count)
	}
}

func TestDrainAvailable(t *testing.T) {
	m := twoNode(t)
	const h = 100
	got := 0
	m.Nodes[1].Msgr.Register(h, func(ctx msg.Context) { got++ })
	m.Spawn(0, func(p *sim.Process, n *machine.Node) {
		for i := 0; i < 6; i++ {
			n.Msgr.Send(p, 1, h, 32, nil)
		}
	})
	m.Spawn(1, func(p *sim.Process, n *machine.Node) {
		n.CPU.Compute(p, 30000) // let everything arrive
		n.Msgr.DrainAvailable(p)
	})
	m.Run(sim.Forever)
	m.Stop()
	if got != 6 {
		t.Fatalf("drained %d, want 6", got)
	}
}

func TestSentReceivedCounters(t *testing.T) {
	m := twoNode(t)
	const h = 100
	got := 0
	m.Nodes[1].Msgr.Register(h, func(ctx msg.Context) { got++ })
	m.Spawn(0, func(p *sim.Process, n *machine.Node) {
		for i := 0; i < 3; i++ {
			n.Msgr.Send(p, 1, h, 16, nil)
		}
	})
	m.Spawn(1, func(p *sim.Process, n *machine.Node) {
		n.Msgr.PollUntil(p, func() bool { return got == 3 })
	})
	m.Run(sim.Forever)
	m.Stop()
	if m.Nodes[0].Msgr.Sent != 3 {
		t.Errorf("Sent = %d", m.Nodes[0].Msgr.Sent)
	}
	if m.Nodes[1].Msgr.Received != 3 {
		t.Errorf("Received = %d", m.Nodes[1].Msgr.Received)
	}
}

// TestTrySendMultiFragment pins TrySend's commit semantics: a
// multi-fragment message that is admitted is delivered whole (the
// remaining fragments ride the blocking path), a refused one leaves
// no partial state behind, and ids stay consistent with later Sends.
func TestTrySendMultiFragment(t *testing.T) {
	m := twoNode(t)
	const h = 100
	got := 0
	m.Nodes[1].Msgr.Register(h, func(ctx msg.Context) {
		got++
		if ctx.Size != 1024 {
			t.Errorf("handler saw size %d, want 1024", ctx.Size)
		}
	})
	ok := false
	m.Spawn(0, func(p *sim.Process, n *machine.Node) {
		ok = n.Msgr.TrySend(p, 1, h, 1024, nil) // 5 fragments
		n.Msgr.Send(p, 1, h, 1024, nil)
	})
	m.Spawn(1, func(p *sim.Process, n *machine.Node) {
		n.Msgr.PollUntil(p, func() bool { return got == 2 })
	})
	m.Run(sim.Forever)
	m.Stop()
	if !ok {
		t.Fatal("TrySend on an empty 512-block CQ should be admitted")
	}
	if got != 2 || m.Nodes[0].Msgr.Sent != 2 || m.Nodes[1].Msgr.Received != 2 {
		t.Fatalf("got %d, Sent %d, Received %d; want 2 each",
			got, m.Nodes[0].Msgr.Sent, m.Nodes[1].Msgr.Received)
	}
}

// TestTrySendRefusal fills NI2w's two-message FIFO with no consumer:
// TrySend must refuse instead of spinning, and must not count a
// refused message as sent.
func TestTrySendRefusal(t *testing.T) {
	m := machine.New(params.Config{Nodes: 2, NI: params.NI2w, Bus: params.MemoryBus})
	const h = 100
	accepted := 0
	m.Spawn(0, func(p *sim.Process, n *machine.Node) {
		for i := 0; i < 32; i++ {
			if !n.Msgr.TrySend(p, 1, h, 32, nil) {
				break
			}
			accepted++
		}
	})
	m.Run(sim.Forever)
	m.Stop()
	if accepted == 0 || accepted >= 32 {
		t.Fatalf("accepted = %d, want backpressure in (0,32)", accepted)
	}
	if m.Nodes[0].Msgr.Sent != uint64(accepted) {
		t.Fatalf("Sent = %d, want %d", m.Nodes[0].Msgr.Sent, accepted)
	}
}
