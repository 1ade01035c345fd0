package network

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/params"
	"repro/internal/sim"
)

// faultRig builds a fabric with an injector attached and open ports.
func faultRig(c implCase, f params.Faults) (*sim.Engine, *sim.Stats, Interconnect, []*fakePort) {
	e, st, ic, ports := confRig(c)
	ic.AttachFaults(fault.New(st, c.nodes, f))
	return e, st, ic, ports
}

// TestFaultDropReturnsCredit pins the layering contract on both
// fabrics: a dropped frame must still return its window credit (the
// sliding window is link-level flow control, not reliability), so a
// lossy link can never wedge the sender.
func TestFaultDropReturnsCredit(t *testing.T) {
	forEachImpl(t, func(t *testing.T, c implCase) {
		e, st, ic, ports := faultRig(c, params.Faults{DropProb: 1, Seed: 5})
		dst := c.nodes - 1
		const sends = 2 * params.NetWindow
		e.Spawn("src", func(p *sim.Process) {
			for i := 0; i < sends; i++ {
				inject(ic, p, &Msg{Src: 0, Dst: dst, Size: 8, Blocks: 1})
			}
		})
		e.RunAll()
		if len(ports[dst].got) != 0 {
			t.Fatalf("delivered %d messages at drop rate 1, want 0", len(ports[dst].got))
		}
		if got := st.Get("net.drops"); got != sends {
			t.Errorf("net.drops = %d, want %d", got, sends)
		}
		if got := ic.InFlight(0, dst); got != 0 {
			t.Errorf("InFlight = %d after drops, want 0 (credit leaked)", got)
		}
	})
}

// TestFaultCorruptScramblesChecksum pins the ideal-checksum corruption
// model: the frame is delivered, but its checksum no longer matches.
func TestFaultCorruptScramblesChecksum(t *testing.T) {
	forEachImpl(t, func(t *testing.T, c implCase) {
		e, st, ic, ports := faultRig(c, params.Faults{CorruptProb: 1, Seed: 5})
		dst := c.nodes - 1
		e.Spawn("src", func(p *sim.Process) {
			inject(ic, p, &Msg{Src: 0, Dst: dst, Size: 8, Blocks: 1, Checksum: 41})
		})
		e.RunAll()
		if len(ports[dst].got) != 1 {
			t.Fatalf("delivered %d, want 1", len(ports[dst].got))
		}
		if got := ports[dst].got[0].Checksum; got != 41^CorruptMask {
			t.Errorf("checksum = %#x, want %#x", got, 41^CorruptMask)
		}
		if st.Get("net.corrupted") != 1 {
			t.Error("net.corrupted did not advance")
		}
	})
}

// TestFaultDuplicateDeliversTwice pins duplication: the copy arrives
// marked Dup, is never re-planned, and returns no second credit.
func TestFaultDuplicateDeliversTwice(t *testing.T) {
	forEachImpl(t, func(t *testing.T, c implCase) {
		e, st, ic, ports := faultRig(c, params.Faults{DupProb: 1, Seed: 5})
		dst := c.nodes - 1
		e.Spawn("src", func(p *sim.Process) {
			inject(ic, p, &Msg{Src: 0, Dst: dst, Size: 8, Blocks: 1, ID: 9})
		})
		e.RunAll()
		if len(ports[dst].got) != 2 {
			t.Fatalf("delivered %d copies, want 2", len(ports[dst].got))
		}
		if ports[dst].got[0].Dup || !ports[dst].got[1].Dup {
			t.Errorf("Dup marks = %v, %v; want original first, copy marked",
				ports[dst].got[0].Dup, ports[dst].got[1].Dup)
		}
		if st.Get("net.dups") != 1 {
			t.Error("net.dups did not advance")
		}
		if got := ic.InFlight(0, dst); got != 0 {
			t.Errorf("InFlight = %d, want 0 (duplicate returned an extra credit?)", got)
		}
	})
}

// TestFaultDelayLandsLate pins the delay fault: the frame arrives its
// extra delay later than the fabric's nominal latency, and a trailing
// undelayed frame can overtake it (reordering).
func TestFaultDelayLandsLate(t *testing.T) {
	e, st, ic, ports := faultRig(implCase{"flat", 2, func(e *sim.Engine, st *sim.Stats, n int) Interconnect {
		return New(e, st, n)
	}}, params.Faults{DelayProb: 1, DelayCycles: 300, Seed: 5})
	e.Spawn("src", func(p *sim.Process) {
		inject(ic, p, &Msg{Src: 0, Dst: 1, Size: 8, Blocks: 1})
	})
	e.Schedule(params.NetLatency+299, func() {
		if len(ports[1].got) != 0 {
			t.Error("delayed frame arrived before latency+delay")
		}
	})
	e.RunAll()
	if len(ports[1].got) != 1 {
		t.Fatalf("delivered %d, want 1", len(ports[1].got))
	}
	if st.Get("net.delayed") != 1 {
		t.Error("net.delayed did not advance")
	}
}

// TestFaultPauseStallsDelivery pins the pause fault at the delivery
// edge: arrivals for a paused node queue up and drain when the window
// closes, in order.
func TestFaultPauseStallsDelivery(t *testing.T) {
	forEachImpl(t, func(t *testing.T, c implCase) {
		dst := c.nodes - 1
		const until = 5000
		e, st, ic, ports := faultRig(c, params.Faults{
			// An empty plan set still builds an injector when a pause
			// schedule exists (params.Faults.Injects).
			Pauses: []params.FaultPause{{Node: dst, From: 1, Until: until}},
		})
		e.Spawn("src", func(p *sim.Process) {
			p.Sleep(10) // inside the pause window
			for i := 0; i < 3; i++ {
				inject(ic, p, &Msg{Src: 0, Dst: dst, Size: 8, Blocks: 1, ID: uint64(i)})
			}
		})
		e.Schedule(until-1, func() {
			if len(ports[dst].got) != 0 {
				t.Error("paused node accepted deliveries inside the window")
			}
		})
		e.RunAll()
		if len(ports[dst].got) != 3 {
			t.Fatalf("delivered %d after resume, want 3", len(ports[dst].got))
		}
		for i, m := range ports[dst].got {
			if m.ID != uint64(i) {
				t.Fatalf("resume delivered out of order: id %d at %d", m.ID, i)
			}
		}
		if st.Get("net.paused") == 0 {
			t.Error("net.paused did not advance")
		}
	})
}

// TestFaultPauseStallsInjection pins the pause fault at the injection
// edge: a paused node's own sends sleep until the window closes.
func TestFaultPauseStallsInjection(t *testing.T) {
	forEachImpl(t, func(t *testing.T, c implCase) {
		const until = 3000
		e, _, ic, _ := faultRig(c, params.Faults{
			Pauses: []params.FaultPause{{Node: 0, From: 0, Until: until}},
		})
		var sentAt sim.Time
		e.Spawn("src", func(p *sim.Process) {
			inject(ic, p, &Msg{Src: 0, Dst: c.nodes - 1, Size: 8, Blocks: 1})
			sentAt = p.Now()
		})
		e.RunAll()
		if sentAt < until {
			t.Fatalf("paused node injected at %d, want >= %d", sentAt, until)
		}
	})
}

// TestFaultCrashDropsBothDirections pins the crash fault: frames to
// and from a crashed node vanish at the edge (credits intact), and the
// dedicated counter separates them from probabilistic drops.
func TestFaultCrashDropsBothDirections(t *testing.T) {
	forEachImpl(t, func(t *testing.T, c implCase) {
		dead := c.nodes - 1
		e, st, ic, ports := faultRig(c, params.Faults{
			Crashes: []params.FaultCrash{{Node: dead, At: 0}},
		})
		e.Spawn("src", func(p *sim.Process) {
			inject(ic, p, &Msg{Src: 0, Dst: dead, Size: 8, Blocks: 1})
		})
		e.Spawn("dead", func(p *sim.Process) {
			inject(ic, p, &Msg{Src: dead, Dst: 0, Size: 8, Blocks: 1})
		})
		e.RunAll()
		if n := len(ports[dead].got) + len(ports[0].got); n != 0 {
			t.Fatalf("delivered %d messages through a crashed node, want 0", n)
		}
		if got := st.Get("net.crash.drops"); got != 2 {
			t.Errorf("net.crash.drops = %d, want 2", got)
		}
		if ic.InFlight(0, dead) != 0 || ic.InFlight(dead, 0) != 0 {
			t.Error("crash drops leaked window credits")
		}
	})
}

// TestFaultEnabledAllocBudget pins the fault-enabled delivery path at
// zero allocations per window on both fabrics: transit, link flight and
// the fault edge's delayed frames all ride arrival-ordered queues
// drained by pre-built callbacks, so drops, delays and a degrade window
// that closes mid-measurement cost no per-message closure. Duplicate
// copies come from a per-destination pool (dupOf), and countingPort
// returns each one with FreeDup as a consumer done with it does.
func TestFaultEnabledAllocBudget(t *testing.T) {
	// Half the frames are delayed and half duplicated, so every window
	// holds delays and duplicate copies (AllocsPerRun truncates to
	// whole allocations per run). Each degrade window opens and closes
	// inside the measured runs.
	degrade := map[string][2]uint64{"flat": {20_000, 60_000}, "torus": {200_000, 600_000}}
	forEachImpl(t, func(t *testing.T, c implCase) {
		e := sim.NewEngine()
		st := sim.NewStats()
		ic := c.build(e, st, c.nodes)
		from, until := degrade[c.name][0], degrade[c.name][1]
		ic.AttachFaults(fault.New(st, c.nodes, params.Faults{
			DropProb: 0.01, DelayProb: 0.5, DupProb: 0.5, Seed: 9,
			DegradeFrom: from, DegradeUntil: until, DegradeLatencyX: 3, DegradeBandwidthX: 2,
		}))
		port := &countingPort{}
		for i := 0; i < c.nodes; i++ {
			ic.Register(i, port)
		}
		dst := c.nodes - 1
		m := &Msg{Src: 0, Dst: dst, Size: 64, Blocks: 2}
		kick := sim.NewCond()
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
		for i := 0; i < 8; i++ {
			kick.Signal()
			e.RunAll()
		}
		start := e.Now()
		allocs := testing.AllocsPerRun(200, func() {
			kick.Signal()
			e.RunAll()
		})
		if start >= sim.Time(from) || e.Now() <= sim.Time(until) {
			t.Fatalf("measured cycles %d..%d do not contain the degrade window [%d, %d)", start, e.Now(), from, until)
		}
		if allocs != 0 {
			t.Errorf("%s fault-enabled delivery allocates %.2f objects/run, want 0", c.name, allocs)
		}
		if port.n == 0 {
			t.Fatal("no messages delivered")
		}
		e.Stop()
	})
}
