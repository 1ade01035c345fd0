package workload

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/params"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// plainDrainSleep is the generators' idle step as the loops ran it
// before DrainIdle: one drain, then one plain Sleep, with the process
// resumed at every wake. It ignores the rule's until: the caller's loop
// checks its own condition at each wake.
func plainDrainSleep(ep *scenario.Endpoint, rule func(now sim.Time, drained int) (sleep, until sim.Time)) {
	n := ep.Drain()
	if d, _ := rule(ep.Clock(), n); d > 0 {
		ep.Sleep(d)
	}
}

// loopResult is what a run must reproduce bit for bit whichever idle
// step it runs: the report, every counter, the end time and the events
// scheduled. Engine holds all engine counters, so that a test can also
// compare resumes.
type loopResult struct {
	rep      Report
	counters map[string]uint64
	end      sim.Time
	engine   sim.EngineCounters
}

func (a loopResult) diff(b loopResult) string {
	switch {
	case a.rep != b.rep:
		return fmt.Sprintf("reports differ:\n  %+v\n  %+v", a.rep, b.rep)
	case !maps.Equal(a.counters, b.counters):
		for k, v := range a.counters {
			if b.counters[k] != v {
				return fmt.Sprintf("counter %s: %d vs %d", k, v, b.counters[k])
			}
		}
		return fmt.Sprintf("counter sets differ: %d vs %d counters", len(a.counters), len(b.counters))
	case a.end != b.end:
		return fmt.Sprintf("end %d vs %d", a.end, b.end)
	case a.engine.Scheduled != b.engine.Scheduled:
		return fmt.Sprintf("scheduled %d vs %d events", a.engine.Scheduled, b.engine.Scheduled)
	}
	return ""
}

// runIdleStep runs cfg's workload with the generators' idle step on
// DrainIdle, or on plainDrainSleep when plain is set.
func runIdleStep(cfg params.Config, warm, measure sim.Time, plain bool) loopResult {
	r := newRun(cfg, warm, measure)
	defer r.m.Close()
	if plain {
		r.drainIdle = plainDrainSleep
	}
	rep, _, tr := r.execute(false)
	return loopResult{rep: rep, counters: tr.Counters, end: tr.End, engine: r.m.EngineCounters()}
}

// scriptedIdle is a three-node machine whose loops put every edge of
// the idle iteration under test. Node 1 runs the open loop's wait rule
// and node 0 the closed loop's, each issuing a message to the other at
// its arrivals, and each arrival comes due k cycles after the previous
// one was issued, k stepping through 0..600: an arrival lands during
// the real drain (the overrun), exactly when a drain ends (next == now),
// at, inside and between the sleep, loop-overhead and poll-load wakes
// of later idle iterations. Node 2 sends to both at seeded random gaps,
// so messages become visible at every point of those iterations. Both
// loops stop at end, which the test moves through a quantum. Every
// delivery is logged by node, time and source.
func scriptedIdle(cfg params.Config, end sim.Time, plain bool) (loopResult, []sim.Time) {
	m, err := scenario.Build(cfg)
	if err != nil {
		panic(err)
	}
	defer m.Close()
	const h = 400
	var log []sim.Time
	for id := 0; id < 3; id++ {
		m.Endpoint(id).Handle(h, func(d *scenario.Delivery) {
			d.EP.Compute(serviceCycles)
			log = append(log, sim.Time(d.EP.ID()), d.EP.Clock(), sim.Time(d.Src))
		})
	}
	idle := (*scenario.Endpoint).DrainIdle
	if plain {
		idle = plainDrainSleep
	}
	loop := func(peer int, rule func(next, now sim.Time, drained int) sim.Time) scenario.NodeFunc {
		return func(ep *scenario.Endpoint) {
			k := sim.Time(0)
			next := ep.Clock()
			idleRule := func(now sim.Time, drained int) (sim.Time, sim.Time) {
				return rule(next, now, drained), min(next, end)
			}
			for ep.Clock() < end {
				if ep.Clock() >= next {
					ep.SendTo(peer, h, 8, nil)
					next, k = ep.Clock()+k, (k+1)%601
					continue
				}
				idle(ep, idleRule)
			}
		}
	}
	rng := apps.NewRand(5)
	sc := scenario.New().
		At(0, loop(1, closedWait)).
		At(1, loop(0, func(next, now sim.Time, _ int) sim.Time { return openWait(next, now) })).
		At(2, func(ep *scenario.Endpoint) {
			for ep.Clock() < end {
				ep.Compute(sim.Time(rng.Intn(700)))
				ep.SendTo(rng.Intn(2), h, 8, nil)
			}
		})
	tr := m.Run(sc)
	return loopResult{counters: tr.Counters, end: tr.End, engine: m.EngineCounters()}, log
}

// TestDrainIdleMatchesLoop: the generators' idle iterations run as
// probes (DrainIdle) must keep the plain drain-and-sleep loop's
// schedule exactly — equal reports, counter dumps, end times and events
// scheduled — on the open and closed loops, over cachable-queue NIs
// (probed), an update-protocol queue (a message visible while the poll
// load hits), NI2w and the reliable transport (never probed), and a
// sharded torus. The scripted machine walks arrivals and messages
// through every phase of the idle iteration and its edges, and moves
// the loops' stop through a quantum.
func TestDrainIdleMatchesLoop(t *testing.T) {
	t.Parallel()
	wl := func(arrival params.ArrivalKind, mbps float64) *params.Workload {
		w := params.DefaultWorkload()
		w.Arrival, w.OfferedMBps = arrival, mbps
		return &w
	}
	for _, c := range []struct {
		name string
		cfg  params.Config
	}{
		{"open/cni512q/torus", params.Config{Nodes: 16, NI: params.CNI512Q, Topology: params.TopoTorus, Workload: wl(params.ArrivalPoisson, 13.5)}},
		{"bursty/cni16q/flat", params.Config{Nodes: 16, NI: params.CNI16Q, Workload: wl(params.ArrivalBursty, 8)}},
		{"open/cni16qm/update", params.Config{Nodes: 8, NI: params.CNI16Qm, UpdateProtocol: true, Workload: wl(params.ArrivalPoisson, 6)}},
		{"closed/cni512q/torus", params.Config{Nodes: 16, NI: params.CNI512Q, Topology: params.TopoTorus, Workload: wl(params.ArrivalClosed, 0)}},
		{"closed/cni16q/flat", params.Config{Nodes: 16, NI: params.CNI16Q, Workload: wl(params.ArrivalClosed, 0)}},
		{"open/ni2w/flat", params.Config{Nodes: 8, NI: params.NI2w, Workload: wl(params.ArrivalPoisson, 4)}},
		{"closed/cni16q/faults", params.Config{Nodes: 8, NI: params.CNI16Q, Workload: wl(params.ArrivalClosed, 0),
			Faults: params.Faults{Seed: 2, DropProb: 0.01}}},
		{"open/cni16q/4-shard", params.Config{Nodes: 64, NI: params.CNI16Q, Topology: params.TopoTorus, Shards: 4, Workload: wl(params.ArrivalPoisson, 6)}},
	} {
		c.cfg.Bus = params.MemoryBus
		if c.cfg.Workload.Arrival == params.ArrivalClosed {
			c.cfg.Workload.Clients = 1000
		}
		// The horizons stop the run at, and just past, arbitrary wakes.
		for _, measure := range short([]sim.Time{150_000, 150_001, 150_130}, 1) {
			probe := runIdleStep(c.cfg, 10_000, measure, false)
			plain := runIdleStep(c.cfg, 10_000, measure, true)
			if d := probe.diff(plain); d != "" {
				t.Errorf("%s, measure %d: DrainIdle and the plain loop differ: %s", c.name, measure, d)
			}
			if probe.rep.Sent == 0 || probe.rep.Delivered == 0 {
				t.Errorf("%s, measure %d: no traffic (sent %d, delivered %d)", c.name, measure, probe.rep.Sent, probe.rep.Delivered)
			}
		}
	}
	for _, cfg := range []params.Config{
		{Nodes: 3, NI: params.CNI512Q},
		{Nodes: 3, NI: params.CNI16Qm},
		{Nodes: 3, NI: params.CNI512Q, UpdateProtocol: true},
		{Nodes: 3, NI: params.NI2w},
	} {
		cfg.Bus = params.MemoryBus
		var probed uint64
		for _, end := range short([]sim.Time{120_000, 120_261, 120_001, 120_004, 120_005, 120_064, 120_256, 120_262, 120_266}, 2) {
			probe, plog := scriptedIdle(cfg, end, false)
			plain, rlog := scriptedIdle(cfg, end, true)
			if d := probe.diff(plain); d != "" {
				t.Errorf("scripted %s, end %d: DrainIdle and the plain loop differ: %s", cfg.Name(), end, d)
			}
			if !slices.Equal(plog, rlog) {
				t.Errorf("scripted %s, end %d: delivery logs differ (%d vs %d entries)", cfg.Name(), end, len(plog), len(rlog))
			}
			if len(plog) < 3*600 {
				t.Errorf("scripted %s, end %d: only %d deliveries", cfg.Name(), end, len(plog)/3)
			}
			probed += probe.engine.Probed - plain.engine.Probed
		}
		if cfg.NI.IsCQ() != (probed > 0) {
			t.Errorf("scripted %s: DrainIdle added %d probed wakes", cfg.Name(), probed)
		}
	}
}

// short keeps the first n of a test's horizons under -short, which the
// race detector's runs use.
func short(horizons []sim.Time, n int) []sim.Time {
	if testing.Short() {
		return horizons[:n]
	}
	return horizons
}

// TestDrainIdleCutsResumes: on the torus-hotspot machine (16-node
// CNI512Q torus at 13.5 MB/s per node) idle generator iterations are
// nearly half of the coroutine resumes, and running them as probes must
// cut resumes by at least 40% against the plain loop.
func TestDrainIdleCutsResumes(t *testing.T) {
	t.Parallel()
	wl := params.DefaultWorkload()
	wl.OfferedMBps = 13.5
	cfg := params.Config{Nodes: 16, NI: params.CNI512Q, Bus: params.MemoryBus, Topology: params.TopoTorus, Workload: &wl}
	probe := runIdleStep(cfg, 20_000, 400_000, false)
	plain := runIdleStep(cfg, 20_000, 400_000, true)
	if d := probe.diff(plain); d != "" {
		t.Fatalf("DrainIdle and the plain loop differ: %s", d)
	}
	cut := 1 - float64(probe.engine.Resumes)/float64(plain.engine.Resumes)
	t.Logf("resumes %d -> %d (-%.1f%%), probed %d -> %d", plain.engine.Resumes, probe.engine.Resumes, 100*cut,
		plain.engine.Probed, probe.engine.Probed)
	if cut < 0.40 {
		t.Errorf("resumes %d -> %d, a %.1f%% cut; want at least 40%%", plain.engine.Resumes, probe.engine.Resumes, 100*cut)
	}
}

// TestDrainIdleSteadyZeroAlloc pins the steady idle loop at zero
// allocations: nodes that only drain and sleep, with an arrival (that
// issues nothing) every 1000 cycles, so DrainIdle returns and is called
// again, spinning each time.
func TestDrainIdleSteadyZeroAlloc(t *testing.T) {
	m, err := scenario.Build(params.Config{Nodes: 16, NI: params.CNI512Q, Bus: params.MemoryBus, Topology: params.TopoTorus})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sc := scenario.New()
	for id := 0; id < 16; id++ {
		sc.At(id, func(ep *scenario.Endpoint) {
			next := ep.Clock()
			rule := func(now sim.Time, _ int) (sim.Time, sim.Time) { return openWait(next, now), next }
			for {
				next += 1000
				for ep.Clock() < next {
					ep.DrainIdle(rule)
				}
			}
		})
	}
	m.RunUntil(sc, 20_000)
	at := sim.Time(20_000)
	before := m.EngineCounters()
	allocs := testing.AllocsPerRun(100, func() {
		at += 2_000
		m.Advance(at)
	})
	after := m.EngineCounters()
	if allocs != 0 {
		t.Errorf("the idle loop allocates %.2f objects per 2k-cycle window, want 0", allocs)
	}
	if probed, resumes := after.Probed-before.Probed, after.Resumes-before.Resumes; probed < 2*resumes {
		t.Errorf("the idle loop made %d probed wakes and %d resumes; want it spinning", probed, resumes)
	}
}
