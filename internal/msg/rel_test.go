package msg_test

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/params"
	"repro/internal/sim"
)

// The reliable-transport behavior suite runs small two-node machines
// with fault injection turned on and checks the end-to-end contract:
// every user message is delivered exactly once, in order, or is
// accounted dead after the retry budget — never lost silently.

const relTestMsgs = 300

// runRelPair streams relTestMsgs payload-numbered messages 0->1 under
// f and returns the delivered payload order plus the machine for
// counter checks. Both nodes poll to the horizon so the lazy
// transport timers on both sides keep ticking.
func runRelPair(t *testing.T, f params.Faults, horizon sim.Time) ([]int, *machine.Machine) {
	t.Helper()
	m := machine.New(params.Config{
		Nodes: 2, NI: params.CNI512Q, Bus: params.MemoryBus, Faults: f,
	})
	const h = 100
	var order []int
	m.Nodes[1].Msgr.Register(h, func(ctx msg.Context) { order = append(order, ctx.Payload.(int)) })
	m.Spawn(0, func(p *sim.Process, n *machine.Node) {
		for i := 0; i < relTestMsgs; i++ {
			n.Msgr.Send(p, 1, h, 32, i)
		}
		n.Msgr.PollUntil(p, func() bool { return false })
	})
	m.Spawn(1, func(p *sim.Process, n *machine.Node) {
		n.Msgr.PollUntil(p, func() bool { return false })
	})
	m.Run(horizon)
	m.Stop()
	return order, m
}

// checkExactlyOnceInOrder asserts the delivered payloads are exactly
// 0..relTestMsgs-1 in order.
func checkExactlyOnceInOrder(t *testing.T, order []int) {
	t.Helper()
	if len(order) != relTestMsgs {
		t.Fatalf("delivered %d messages, want %d", len(order), relTestMsgs)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("delivery order broken: payload %d at position %d", v, i)
		}
	}
}

func TestFaultTransportCleanPathHasNoRetransmits(t *testing.T) {
	order, m := runRelPair(t, params.Faults{Transport: true}, 2_000_000)
	checkExactlyOnceInOrder(t, order)
	for _, c := range []string{"net.retransmits", "net.dup_suppressed", "net.checksum_fail", "net.dead"} {
		if got := m.Stats.Get(c); got != 0 {
			t.Errorf("fault-free transport run: %s = %d, want 0", c, got)
		}
	}
}

func TestFaultTransportRecoversDrops(t *testing.T) {
	order, m := runRelPair(t, params.Faults{Seed: 2, DropProb: 0.05, Transport: true}, 4_000_000)
	checkExactlyOnceInOrder(t, order)
	if m.Stats.Get("net.drops") == 0 {
		t.Fatal("drop rate 0.05 injected no drops")
	}
	if m.Stats.Get("net.retransmits") == 0 {
		t.Error("drops recovered without retransmits?")
	}
	if m.Stats.Get("net.dead") != 0 {
		t.Errorf("net.dead = %d on a recoverable run, want 0", m.Stats.Get("net.dead"))
	}
	if m.Stats.Histogram("net.recovery").Count() == 0 {
		t.Error("net.recovery histogram recorded no recovered frames")
	}
}

func TestFaultTransportRecoversCorruption(t *testing.T) {
	order, m := runRelPair(t, params.Faults{Seed: 2, CorruptProb: 0.05, Transport: true}, 4_000_000)
	checkExactlyOnceInOrder(t, order)
	if m.Stats.Get("net.corrupted") == 0 {
		t.Fatal("corrupt rate 0.05 injected no corruption")
	}
	if m.Stats.Get("net.checksum_fail") == 0 {
		t.Error("injected corruption never failed a checksum")
	}
}

func TestFaultTransportSuppressesDuplicates(t *testing.T) {
	order, m := runRelPair(t, params.Faults{Seed: 2, DupProb: 0.2, Transport: true}, 4_000_000)
	checkExactlyOnceInOrder(t, order)
	if m.Stats.Get("net.dups") == 0 {
		t.Fatal("dup rate 0.2 injected no duplicates")
	}
	if m.Stats.Get("net.dup_suppressed") == 0 {
		t.Error("injected duplicates never suppressed")
	}
}

func TestFaultTransportReordersDelayedFrames(t *testing.T) {
	order, m := runRelPair(t, params.Faults{
		Seed: 2, DelayProb: 0.2, DelayCycles: 2000, Transport: true,
	}, 4_000_000)
	checkExactlyOnceInOrder(t, order)
	if m.Stats.Get("net.delayed") == 0 {
		t.Fatal("delay rate 0.2 injected no delays")
	}
	if m.Stats.Get("net.ooo_buffered") == 0 {
		t.Error("delayed frames never arrived out of order (reorder path untested)")
	}
}

// TestFaultTransportStreamDeath crashes the receiver mid-stream: the
// sender must exhaust its retry budget, declare the stream dead,
// account every unacknowledged and later frame in net.dead, and keep
// running (a dead peer never wedges the sender).
func TestFaultTransportStreamDeath(t *testing.T) {
	f := params.Faults{
		Transport: true,
		Crashes:   []params.FaultCrash{{Node: 1, At: 10_000}},
	}
	order, m := runRelPair(t, f, 8_000_000)
	delivered := uint64(len(order))
	if delivered == 0 || delivered >= relTestMsgs {
		t.Fatalf("delivered %d, want some but not all of %d", delivered, relTestMsgs)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("pre-crash delivery out of order: payload %d at %d", v, i)
		}
	}
	dead := m.Stats.Get("net.dead")
	if dead == 0 {
		t.Fatal("crashed peer produced no dead-stream accounting")
	}
	// Every user frame is either delivered or dead — none lost silently.
	// (Single-fragment sends: one frame per message. A few frames can be
	// both delivered and later declared dead — delivered just before the
	// crash, ack lost — so the sum may exceed the total.)
	if delivered+dead < relTestMsgs {
		t.Errorf("delivered %d + dead %d < %d sent: frames lost without accounting",
			delivered, dead, relTestMsgs)
	}
	if m.Stats.Get("net.crash.drops") == 0 {
		t.Error("crash produced no crash drops")
	}
}

// TestFaultTransportTrySendRefusalLeavesNoGap pins sendData's
// commit-on-acceptance: a refused TrySend must not burn a sequence
// number, or the stream would stall waiting for a frame that was
// never sent. NI2w's two-deep FIFO with no consumer forces refusals.
func TestFaultTransportTrySendRefusalLeavesNoGap(t *testing.T) {
	m := machine.New(params.Config{
		Nodes: 2, NI: params.NI2w, Bus: params.MemoryBus,
		Faults: params.Faults{Transport: true},
	})
	const h = 100
	var order []int
	m.Nodes[1].Msgr.Register(h, func(ctx msg.Context) { order = append(order, ctx.Payload.(int)) })
	accepted := 0
	m.Spawn(0, func(p *sim.Process, n *machine.Node) {
		for i := 0; i < 40; i++ {
			if n.Msgr.TrySend(p, 1, h, 32, i) {
				accepted++
			}
		}
		// The blocking path must still work after refusals.
		n.Msgr.Send(p, 1, h, 32, 40)
		n.Msgr.PollUntil(p, func() bool { return false })
	})
	m.Spawn(1, func(p *sim.Process, n *machine.Node) {
		n.Msgr.PollUntil(p, func() bool { return false })
	})
	m.Run(2_000_000)
	m.Stop()
	if accepted == 0 || accepted >= 40 {
		t.Fatalf("accepted = %d, want refusals in (0,40)", accepted)
	}
	if len(order) != accepted+1 {
		t.Fatalf("delivered %d, want %d accepted + 1 blocking send", len(order), accepted)
	}
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Fatalf("delivery order broken at %d: %v", i, order)
		}
	}
	if m.Stats.Get("net.dead") != 0 {
		t.Error("refusals must not kill the stream")
	}
}
