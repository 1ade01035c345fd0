package network

import (
	"testing"

	"repro/internal/params"
	"repro/internal/sim"
)

// fakePort is a controllable network.Port.
type fakePort struct {
	accept bool
	got    []*Msg
}

func (f *fakePort) NetDeliver(m *Msg) bool {
	if !f.accept {
		return false
	}
	f.got = append(f.got, m)
	return true
}

// sender returns a blocking send for coroutine p: each call injects
// through p's Injector and, when the message must wait for its node's
// pause or for window credit, parks p until it has been launched.
func sender(ic Interconnect, p *sim.Process) func(*Msg) {
	var done sim.Cond
	in := ic.Injector(p, done.Signal)
	return func(m *Msg) {
		if !in.Inject(m) {
			done.Wait(p)
		}
	}
}

// inject sends m from coroutine p through a one-off sender.
func inject(ic Interconnect, p *sim.Process, m *Msg) { sender(ic, p)(m) }

func rig(n int) (*sim.Engine, *Flat, []*fakePort) {
	e := sim.NewEngine()
	st := sim.NewStats()
	nw := New(e, st, n)
	ports := make([]*fakePort, n)
	for i := range ports {
		ports[i] = &fakePort{accept: true}
		nw.Register(i, ports[i])
	}
	return e, nw, ports
}

func TestMsgBlocks(t *testing.T) {
	cases := map[int]int{
		0:   1, // header only
		8:   1, // 20 bytes
		52:  1, // exactly one block with header
		53:  2,
		116: 2,
		244: 4, // full message
	}
	for size, want := range cases {
		if got := MsgBlocks(size); got != want {
			t.Errorf("MsgBlocks(%d) = %d, want %d", size, got, want)
		}
	}
}

func TestMsgBlocksPanicsOnOversize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversized payload")
		}
	}()
	MsgBlocks(params.MaxPayloadBytes + 1)
}

func TestMsgWords(t *testing.T) {
	if got := MsgWords(8); got != 3 { // 20 bytes -> 3 dwords
		t.Errorf("MsgWords(8) = %d, want 3", got)
	}
	if got := MsgWords(244); got != 32 {
		t.Errorf("MsgWords(244) = %d, want 32", got)
	}
}

func TestDeliveryAfterLatency(t *testing.T) {
	e, nw, ports := rig(2)
	var sent sim.Time
	arrived := sim.Forever
	e.Spawn("src", func(p *sim.Process) {
		sent = p.Now()
		inject(nw, p, &Msg{Src: 0, Dst: 1, Size: 64, Blocks: 2})
	})
	e.Schedule(params.NetLatency-1, func() {
		if len(ports[1].got) != 0 {
			t.Error("message arrived before the network latency elapsed")
		}
	})
	e.Schedule(params.NetLatency, func() {
		// Arrival events were scheduled after this check at the same
		// instant, so re-check one cycle later.
		e.Schedule(1, func() {
			if len(ports[1].got) == 1 {
				arrived = params.NetLatency
			}
		})
	})
	e.RunAll()
	if len(ports[1].got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(ports[1].got))
	}
	if arrived-sent != params.NetLatency {
		t.Fatalf("latency = %d, want %d", arrived-sent, params.NetLatency)
	}
}

func TestWindowBlocksFifthMessage(t *testing.T) {
	e, nw, _ := rig(2)
	var times []sim.Time
	e.Spawn("src", func(p *sim.Process) {
		for i := 0; i < params.NetWindow+1; i++ {
			inject(nw, p, &Msg{Src: 0, Dst: 1, Size: 8, Blocks: 1})
			times = append(times, p.Now())
		}
	})
	e.RunAll()
	// The first four injections are immediate; the fifth waits for the
	// first ack (latency out + latency back).
	for i := 0; i < params.NetWindow; i++ {
		if times[i] != 0 {
			t.Fatalf("injection %d at %d, want 0", i, times[i])
		}
	}
	if times[params.NetWindow] != 2*params.NetLatency {
		t.Fatalf("fifth injection at %d, want %d", times[params.NetWindow], 2*params.NetLatency)
	}
}

func TestWindowIsPerDestination(t *testing.T) {
	e, nw, _ := rig(3)
	var done sim.Time
	e.Spawn("src", func(p *sim.Process) {
		for i := 0; i < params.NetWindow; i++ {
			inject(nw, p, &Msg{Src: 0, Dst: 1, Size: 8, Blocks: 1})
		}
		// A different destination must not block.
		inject(nw, p, &Msg{Src: 0, Dst: 2, Size: 8, Blocks: 1})
		done = p.Now()
	})
	e.RunAll()
	if done != 0 {
		t.Fatalf("cross-destination send blocked until %d, want 0", done)
	}
}

func TestBackpressureRedeliversInOrder(t *testing.T) {
	e, nw, ports := rig(2)
	ports[1].accept = false
	e.Spawn("src", func(p *sim.Process) {
		for i := 0; i < 3; i++ {
			inject(nw, p, &Msg{Src: 0, Dst: 1, Size: 8, Blocks: 1, ID: uint64(i)})
		}
	})
	e.Run(sim.Time(10_000))
	if len(ports[1].got) != 0 {
		t.Fatal("refused messages were delivered")
	}
	if nw.Pending(1) != 3 {
		t.Fatalf("pending = %d, want 3", nw.Pending(1))
	}
	// Open the port and unblock: arrival order preserved.
	ports[1].accept = true
	e.Schedule(0, func() { nw.Unblock(1) })
	e.RunAll()
	if len(ports[1].got) != 3 {
		t.Fatalf("delivered %d after unblock, want 3", len(ports[1].got))
	}
	for i, m := range ports[1].got {
		if m.ID != uint64(i) {
			t.Fatalf("out of order: got %d at %d", m.ID, i)
		}
	}
}

func TestAckOnlyAfterAcceptance(t *testing.T) {
	e, nw, ports := rig(2)
	ports[1].accept = false
	e.Spawn("src", func(p *sim.Process) {
		inject(nw, p, &Msg{Src: 0, Dst: 1, Size: 8, Blocks: 1})
	})
	e.RunAll()
	if nw.InFlight(0, 1) != 1 {
		t.Fatalf("in-flight = %d, want 1 (no ack while refused)", nw.InFlight(0, 1))
	}
	ports[1].accept = true
	e.Schedule(0, func() { nw.Unblock(1) })
	e.RunAll()
	if nw.InFlight(0, 1) != 0 {
		t.Fatalf("in-flight = %d after acceptance+ack, want 0", nw.InFlight(0, 1))
	}
}

func TestNetworkStats(t *testing.T) {
	e, nw, _ := rig(2)
	st := sim.NewStats()
	_ = st
	e.Spawn("src", func(p *sim.Process) {
		inject(nw, p, &Msg{Src: 0, Dst: 1, Size: 100, Blocks: 2})
	})
	e.RunAll()
	if nw.Nodes() != 2 {
		t.Fatalf("Nodes = %d", nw.Nodes())
	}
}
