package network

import (
	"testing"

	"repro/internal/params"
	"repro/internal/sim"
)

func torusRig(n int) (*sim.Engine, *Torus, []*fakePort) {
	e := sim.NewEngine()
	st := sim.NewStats()
	tw := NewTorus(e, st, n)
	ports := make([]*fakePort, n)
	for i := range ports {
		ports[i] = &fakePort{accept: true}
		tw.Register(i, ports[i])
	}
	return e, tw, ports
}

func TestTorusDims(t *testing.T) {
	cases := map[int][2]int{
		2:  {1, 2},
		4:  {2, 2},
		6:  {2, 3},
		9:  {3, 3},
		12: {3, 4},
		16: {4, 4},
		7:  {1, 7}, // prime: degrades to a ring
	}
	for n, want := range cases {
		w, h := params.TorusDims(n)
		if w != want[0] || h != want[1] {
			t.Errorf("TorusDims(%d) = %dx%d, want %dx%d", n, w, h, want[0], want[1])
		}
	}
}

func TestTorusHopCount(t *testing.T) {
	_, tw, _ := torusRig(16) // 4x4
	cases := []struct{ src, dst, hops int }{
		{0, 0, 0},
		{0, 1, 1},
		{0, 3, 1},  // x wraparound: (0,0) -> (3,0) is one hop back
		{0, 2, 2},  // x tie: two hops either way
		{0, 4, 1},  // one y hop
		{0, 12, 1}, // y wraparound
		{0, 10, 4}, // antipode (2,2): the diameter
		{5, 15, 4},
	}
	for _, c := range cases {
		if got := tw.HopCount(c.src, c.dst); got != c.hops {
			t.Errorf("HopCount(%d,%d) = %d, want %d", c.src, c.dst, got, c.hops)
		}
	}
	// Symmetric by construction (minimal in each dimension).
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			if tw.HopCount(src, dst) != tw.HopCount(dst, src) {
				t.Fatalf("HopCount asymmetric for (%d,%d)", src, dst)
			}
		}
	}
}

// TestTorusDimensionOrderPath follows nextDir hop by hop and checks
// the walk is x-first, minimal, and lands on the destination.
func TestTorusDimensionOrderPath(t *testing.T) {
	_, tw, _ := torusRig(16)
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			cur, hops, yStarted := src, 0, false
			for cur != dst {
				dir := tw.nextDir(cur, dst)
				if dir < 0 {
					t.Fatalf("nextDir(%d,%d) = -1 before arrival", cur, dst)
				}
				if dir == dirYPos || dir == dirYNeg {
					yStarted = true
				} else if yStarted {
					t.Fatalf("route %d->%d went back to x after y", src, dst)
				}
				cur = tw.neighbor(cur, dir)
				hops++
				if hops > 8 {
					t.Fatalf("route %d->%d did not terminate", src, dst)
				}
			}
			if hops != tw.HopCount(src, dst) {
				t.Fatalf("route %d->%d took %d hops, HopCount says %d", src, dst, hops, tw.HopCount(src, dst))
			}
		}
	}
}

// TestTorusUnloadedLatency pins the store-and-forward timing: each
// hop costs occupancy + hop latency, so a k-hop message arrives at
// k*(occupancy+hopLat).
func TestTorusUnloadedLatency(t *testing.T) {
	e, tw, ports := torusRig(16)
	dst := 10 // 4 hops from node 0
	var arrived sim.Time
	ports[dst].accept = true
	e.Spawn("src", func(p *sim.Process) {
		inject(tw, p, &Msg{Src: 0, Dst: dst, Size: 64, Blocks: 2})
	})
	e.Spawn("watch", func(p *sim.Process) {
		for len(ports[dst].got) == 0 {
			p.Sleep(1)
		}
		arrived = p.Now()
	})
	e.RunAll()
	perHop := sim.Time(params.TorusLinkOccupancy + params.TorusHopLatency)
	want := 4 * perHop
	// The watcher polls each cycle, so allow its 1-cycle granularity.
	if arrived != want && arrived != want+1 {
		t.Fatalf("4-hop message arrived at %d, want ~%d", arrived, want)
	}
}

// TestTorusLinkContentionSerialises injects two messages that need
// the same first link at the same instant: the second must wait out
// the first's serialisation, so the deliveries are spaced by the link
// occupancy.
func TestTorusLinkContentionSerialises(t *testing.T) {
	e, tw, ports := torusRig(16)
	dst := 2 // two +x hops from node 0
	e.Spawn("src", func(p *sim.Process) {
		inject(tw, p, &Msg{Src: 0, Dst: dst, Size: 8, Blocks: 1, ID: 1})
		inject(tw, p, &Msg{Src: 0, Dst: dst, Size: 8, Blocks: 1, ID: 2})
	})
	var t1, t2 sim.Time
	e.Spawn("watch", func(p *sim.Process) {
		for len(ports[dst].got) < 1 {
			p.Sleep(1)
		}
		t1 = p.Now()
		for len(ports[dst].got) < 2 {
			p.Sleep(1)
		}
		t2 = p.Now()
	})
	e.RunAll()
	if ports[dst].got[0].ID != 1 || ports[dst].got[1].ID != 2 {
		t.Fatal("FIFO link arbitration broke message order")
	}
	gap := t2 - t1
	if gap != params.TorusLinkOccupancy {
		t.Fatalf("contended deliveries spaced %d cycles apart, want the %d-cycle link occupancy", gap, params.TorusLinkOccupancy)
	}
}

// TestTorusDisjointFlowsDoNotInteract checks two flows with no shared
// link see identical timing alone and together.
func TestTorusDisjointFlowsDoNotInteract(t *testing.T) {
	arrival := func(withOther bool) sim.Time {
		e, tw, ports := torusRig(16)
		e.Spawn("src", func(p *sim.Process) {
			inject(tw, p, &Msg{Src: 0, Dst: 1, Size: 8, Blocks: 1})
		})
		if withOther {
			e.Spawn("other", func(p *sim.Process) {
				// (2,1) -> (3,1): +x link in row 1, disjoint from 0->1.
				inject(tw, p, &Msg{Src: 6, Dst: 7, Size: 8, Blocks: 1})
			})
		}
		var at sim.Time
		e.Spawn("watch", func(p *sim.Process) {
			for len(ports[1].got) == 0 {
				p.Sleep(1)
			}
			at = p.Now()
		})
		e.RunAll()
		return at
	}
	alone, together := arrival(false), arrival(true)
	if alone != together {
		t.Fatalf("disjoint flow changed arrival time: %d alone vs %d together", alone, together)
	}
}
