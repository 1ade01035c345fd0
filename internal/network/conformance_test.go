package network

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The conformance suite runs every Interconnect implementation
// through the shared edge contract: push-based delivery with
// backpressure and in-order redelivery, window-stall accounting, ack
// only after acceptance, and the Pending/InFlight diagnostics.

type implCase struct {
	name  string
	nodes int
	build func(e *sim.Engine, st *sim.Stats, n int) Interconnect
}

func implementations() []implCase {
	return []implCase{
		{"flat", 2, func(e *sim.Engine, st *sim.Stats, n int) Interconnect { return New(e, st, n) }},
		// A 2x2 torus: node 0 -> node 3 crosses two links, so the
		// conformance paths exercise multi-hop forwarding too.
		{"torus", 4, func(e *sim.Engine, st *sim.Stats, n int) Interconnect { return NewTorus(e, st, n) }},
	}
}

// confRig builds an implementation with controllable ports on every
// node.
func confRig(c implCase) (*sim.Engine, *sim.Stats, Interconnect, []*fakePort) {
	e := sim.NewEngine()
	st := sim.NewStats()
	ic := c.build(e, st, c.nodes)
	ports := make([]*fakePort, c.nodes)
	for i := range ports {
		ports[i] = &fakePort{accept: true}
		ic.Register(i, ports[i])
	}
	return e, st, ic, ports
}

func forEachImpl(t *testing.T, f func(t *testing.T, c implCase)) {
	for _, c := range implementations() {
		t.Run(c.name, func(t *testing.T) { f(t, c) })
	}
}

func TestConformanceDelivery(t *testing.T) {
	forEachImpl(t, func(t *testing.T, c implCase) {
		e, st, ic, ports := confRig(c)
		dst := c.nodes - 1
		e.Spawn("src", func(p *sim.Process) {
			for i := 0; i < 3; i++ {
				inject(ic, p, &Msg{Src: 0, Dst: dst, Size: 64, Blocks: 2, ID: uint64(i)})
			}
		})
		e.RunAll()
		if len(ports[dst].got) != 3 {
			t.Fatalf("delivered %d messages, want 3", len(ports[dst].got))
		}
		for i, m := range ports[dst].got {
			if m.ID != uint64(i) {
				t.Fatalf("out of order: got id %d at position %d", m.ID, i)
			}
		}
		if got := st.Get("net.msg"); got != 3 {
			t.Errorf("net.msg = %d, want 3", got)
		}
		if ic.Nodes() != c.nodes {
			t.Errorf("Nodes() = %d, want %d", ic.Nodes(), c.nodes)
		}
	})
}

func TestConformanceBackpressure(t *testing.T) {
	forEachImpl(t, func(t *testing.T, c implCase) {
		e, st, ic, ports := confRig(c)
		dst := c.nodes - 1
		ports[dst].accept = false
		e.Spawn("src", func(p *sim.Process) {
			for i := 0; i < 3; i++ {
				inject(ic, p, &Msg{Src: 0, Dst: dst, Size: 8, Blocks: 1, ID: uint64(i)})
			}
		})
		e.RunAll()
		if len(ports[dst].got) != 0 {
			t.Fatal("refused messages were delivered")
		}
		if got := ic.Pending(dst); got != 3 {
			t.Fatalf("Pending(%d) = %d, want 3", dst, got)
		}
		if got := ic.InFlight(0, dst); got != 3 {
			t.Fatalf("InFlight = %d, want 3 (no ack while refused)", got)
		}
		if st.Get("net.backpressure") == 0 {
			t.Error("backpressure counter did not advance")
		}
		// Open the port and unblock: arrival order preserved, credits
		// return.
		ports[dst].accept = true
		e.Schedule(0, func() { ic.Unblock(dst) })
		e.RunAll()
		if len(ports[dst].got) != 3 {
			t.Fatalf("delivered %d after unblock, want 3", len(ports[dst].got))
		}
		for i, m := range ports[dst].got {
			if m.ID != uint64(i) {
				t.Fatalf("redelivery out of order: got %d at %d", m.ID, i)
			}
		}
		if got := ic.Pending(dst); got != 0 {
			t.Errorf("Pending = %d after drain, want 0", got)
		}
		if got := ic.InFlight(0, dst); got != 0 {
			t.Errorf("InFlight = %d after acks, want 0", got)
		}
	})
}

func TestConformanceWindowStall(t *testing.T) {
	forEachImpl(t, func(t *testing.T, c implCase) {
		e, st, ic, _ := confRig(c)
		dst := c.nodes - 1
		var injected int
		e.Spawn("src", func(p *sim.Process) {
			for i := 0; i < params.NetWindow+2; i++ {
				if i < params.NetWindow && !ic.CanInject(0, dst) {
					t.Errorf("CanInject false with %d in flight", i)
				}
				inject(ic, p, &Msg{Src: 0, Dst: dst, Size: 8, Blocks: 1})
				injected++
			}
		})
		// After the window fills, CanInject must report false until an
		// ack returns.
		e.Schedule(1, func() {
			if ic.CanInject(0, dst) {
				t.Error("CanInject true with a full window")
			}
		})
		e.RunAll()
		if injected != params.NetWindow+2 {
			t.Fatalf("injected %d, want %d", injected, params.NetWindow+2)
		}
		if st.Get("net.window.stall") == 0 {
			t.Error("window stall counter did not advance")
		}
		if got := ic.InFlight(0, dst); got != 0 {
			t.Errorf("InFlight = %d after run, want 0", got)
		}
	})
}

// TestConformanceWindowIsPerDestination checks a full window to one
// destination does not block traffic to another on either fabric.
func TestConformanceWindowIsPerDestination(t *testing.T) {
	forEachImpl(t, func(t *testing.T, c implCase) {
		// Build with 4 nodes so a distinct second destination exists on
		// every fabric.
		e := sim.NewEngine()
		st := sim.NewStats()
		ic := c.build(e, st, 4)
		for i := 0; i < 4; i++ {
			ic.Register(i, &fakePort{accept: true})
		}
		var done sim.Time
		e.Spawn("src", func(p *sim.Process) {
			for i := 0; i < params.NetWindow; i++ {
				inject(ic, p, &Msg{Src: 0, Dst: 1, Size: 8, Blocks: 1})
			}
			inject(ic, p, &Msg{Src: 0, Dst: 3, Size: 8, Blocks: 1})
			done = p.Now()
		})
		e.RunAll()
		if done != 0 {
			t.Fatalf("cross-destination send blocked until %d, want 0", done)
		}
	})
}

// countingPort accepts everything and only counts, so delivery in the
// alloc test cannot allocate. Like a messaging layer done with each
// frame soon after acceptance, it frees the previous frame's duplicate
// copy at the next delivery (the fabric still reads a frame it has
// just delivered).
type countingPort struct {
	n    int
	last *Msg
}

func (c *countingPort) NetDeliver(m *Msg) bool {
	c.n++
	if c.last != nil {
		FreeDup(c.last)
	}
	c.last = m
	return true
}

// TestInjectDeliverAckZeroAlloc pins the steady-state
// inject->deliver->ack cycle at zero allocations for both fabrics
// (DESIGN.md §5): transit bookkeeping rides pre-built event callbacks
// and capacity-reusing FIFOs, never per-message closures.
func TestInjectDeliverAckZeroAlloc(t *testing.T) {
	forEachImpl(t, func(t *testing.T, c implCase) {
		e := sim.NewEngine()
		st := sim.NewStats()
		ic := c.build(e, st, c.nodes)
		port := &countingPort{}
		for i := 0; i < c.nodes; i++ {
			ic.Register(i, port)
		}
		dst := c.nodes - 1
		m := &Msg{Src: 0, Dst: dst, Size: 64, Blocks: 2}
		kick := new(sim.Cond)
		e.Spawn("src", func(p *sim.Process) {
			send := sender(ic, p)
			for {
				kick.Wait(p)
				for i := 0; i < params.NetWindow; i++ {
					send(m)
				}
			}
		})
		e.RunAll()
		// Warm the FIFO backing arrays and the event heap.
		for i := 0; i < 8; i++ {
			kick.Signal()
			e.RunAll()
		}
		allocs := testing.AllocsPerRun(200, func() {
			kick.Signal()
			e.RunAll()
		})
		if allocs != 0 {
			t.Errorf("%s inject->deliver->ack allocates %.2f objects/op, want 0", c.name, allocs)
		}
		if port.n == 0 {
			t.Fatal("no messages delivered")
		}
		e.Stop()
	})
}

// TestTorusFaultPathZeroAlloc pins the fault-enabled torus hot path at
// zero allocations per event, like the fault-free pin above: with an
// injector attached (degrade window active so the per-message
// occupancy/latency scaling actually runs), arrivals ride the same
// per-link flight queues and pre-built callbacks as without faults.
func TestTorusFaultPathZeroAlloc(t *testing.T) {
	e := sim.NewEngine()
	st := sim.NewStats()
	tor := NewTorus(e, st, 4)
	tor.AttachFaults(fault.New(st, 4, params.Faults{
		Seed:              1,
		DegradeUntil:      1 << 40, // degraded for the whole run
		DegradeLatencyX:   2,
		DegradeBandwidthX: 2,
	}))
	port := &countingPort{}
	for i := 0; i < 4; i++ {
		tor.Register(i, port)
	}
	m := &Msg{Src: 0, Dst: 3, Size: 64, Blocks: 2}
	kick := new(sim.Cond)
	e.Spawn("src", func(p *sim.Process) {
		send := sender(tor, p)
		for {
			kick.Wait(p)
			for i := 0; i < params.NetWindow; i++ {
				send(m)
			}
		}
	})
	e.RunAll()
	// Warm the queue backing arrays and the event heap.
	for i := 0; i < 8; i++ {
		kick.Signal()
		e.RunAll()
	}
	allocs := testing.AllocsPerRun(200, func() {
		kick.Signal()
		e.RunAll()
	})
	if allocs != 0 {
		t.Errorf("fault-enabled torus inject->deliver->ack allocates %.2f objects/op, want 0", allocs)
	}
	if port.n == 0 {
		t.Fatal("no messages delivered")
	}
	e.Stop()
}

// TestTraceHotPathZeroAlloc pins the recorder-attached steady-state
// inject->deliver->ack cycle at zero allocations per event on both
// fabrics — the telemetry tentpole's enabled-cost half (DESIGN.md
// §12): hooks write fixed-size records into per-node rings through
// prebuilt callbacks, never closures or boxing.
func TestTraceHotPathZeroAlloc(t *testing.T) {
	forEachImpl(t, func(t *testing.T, c implCase) {
		e := sim.NewEngine()
		st := sim.NewStats()
		ic := c.build(e, st, c.nodes)
		rec := trace.NewRecorder(e, c.nodes, 256)
		ic.AttachTrace(rec)
		port := &countingPort{}
		for i := 0; i < c.nodes; i++ {
			ic.Register(i, port)
		}
		dst := c.nodes - 1
		m := &Msg{Src: 0, Dst: dst, Size: 64, Blocks: 2}
		kick := new(sim.Cond)
		e.Spawn("src", func(p *sim.Process) {
			send := sender(ic, p)
			for {
				kick.Wait(p)
				for i := 0; i < params.NetWindow; i++ {
					send(m)
				}
			}
		})
		e.RunAll()
		// Warm the FIFO backing arrays, the event heap and the rings;
		// the rings are small enough here that the warm-up fills them
		// and the steady state wraps them (wrapping must not allocate).
		for i := 0; i < 8; i++ {
			kick.Signal()
			e.RunAll()
		}
		allocs := testing.AllocsPerRun(200, func() {
			kick.Signal()
			e.RunAll()
		})
		if allocs != 0 {
			t.Errorf("%s traced inject->deliver->ack allocates %.2f objects/op, want 0", c.name, allocs)
		}
		if rec.Len(0) == 0 || rec.Len(dst) == 0 {
			t.Fatal("recorder captured nothing")
		}
		if rec.Overwritten() == 0 {
			t.Error("steady state should have wrapped the 256-record rings")
		}
		e.Stop()
	})
}

// TestTraceFaultPathZeroAlloc pins the combination: recorder attached
// AND fault injector active (drop hooks live on the fault path), still
// zero allocations per event on the torus.
func TestTraceFaultPathZeroAlloc(t *testing.T) {
	e := sim.NewEngine()
	st := sim.NewStats()
	tor := NewTorus(e, st, 4)
	tor.AttachFaults(fault.New(st, 4, params.Faults{
		Seed:              1,
		DegradeUntil:      1 << 40,
		DegradeLatencyX:   2,
		DegradeBandwidthX: 2,
	}))
	tor.AttachTrace(trace.NewRecorder(e, 4, 256))
	port := &countingPort{}
	for i := 0; i < 4; i++ {
		tor.Register(i, port)
	}
	m := &Msg{Src: 0, Dst: 3, Size: 64, Blocks: 2}
	kick := new(sim.Cond)
	e.Spawn("src", func(p *sim.Process) {
		send := sender(tor, p)
		for {
			kick.Wait(p)
			for i := 0; i < params.NetWindow; i++ {
				send(m)
			}
		}
	})
	e.RunAll()
	for i := 0; i < 8; i++ {
		kick.Signal()
		e.RunAll()
	}
	allocs := testing.AllocsPerRun(200, func() {
		kick.Signal()
		e.RunAll()
	})
	if allocs != 0 {
		t.Errorf("traced fault-enabled torus allocates %.2f objects/op, want 0", allocs)
	}
	if port.n == 0 {
		t.Fatal("no messages delivered")
	}
	e.Stop()
}

// TestFlatScheduleUnchanged pins the flat fabric's timing contract
// (the paper's numbers depend on it): constant latency, ack after the
// same return latency.
func TestFlatScheduleUnchanged(t *testing.T) {
	e, nw, ports := rig(2)
	var ackAt sim.Time
	e.Spawn("src", func(p *sim.Process) {
		inject(nw, p, &Msg{Src: 0, Dst: 1, Size: 8, Blocks: 1})
		for nw.InFlight(0, 1) != 0 {
			p.Sleep(1)
		}
		ackAt = p.Now()
	})
	e.RunAll()
	if len(ports[1].got) != 1 {
		t.Fatal("not delivered")
	}
	if want := sim.Time(2 * params.NetLatency); ackAt != want {
		t.Fatalf("window credit returned at %d, want %d", ackAt, want)
	}
}

func ExampleInterconnect() {
	e := sim.NewEngine()
	st := sim.NewStats()
	var ic Interconnect = NewTorus(e, st, 16)
	fmt.Println(ic.Nodes())
	// Output: 16
}
