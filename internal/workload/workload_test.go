package workload

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/params"
	"repro/internal/scenario"
	"repro/internal/sim"
)

func openCfg(arrival params.ArrivalKind, topo params.Topology, mbps float64) params.Config {
	wl := params.DefaultWorkload()
	wl.Arrival = arrival
	wl.OfferedMBps = mbps
	return params.Config{Nodes: 16, NI: params.CNI16Q, Bus: params.MemoryBus, Topology: topo, Workload: &wl}
}

// TestRunDeterministic pins the subsystem's core contract: a fixed
// seed reproduces the run bit for bit, including every histogram
// bucket.
func TestRunDeterministic(t *testing.T) {
	t.Parallel()
	for _, arrival := range []params.ArrivalKind{params.ArrivalPoisson, params.ArrivalBursty, params.ArrivalClosed} {
		cfg := openCfg(arrival, params.TopoTorus, 6)
		a := Run(cfg, 10_000, 30_000)
		b := Run(cfg, 10_000, 30_000)
		if a != b {
			t.Errorf("%v: two identical runs differ:\n  a: %+v\n  b: %+v", arrival, a.Latency.String(), b.Latency.String())
		}
		if a.Latency.Count() == 0 {
			t.Errorf("%v: no latency samples recorded", arrival)
		}
		if a.GoodputMBps <= 0 {
			t.Errorf("%v: no goodput measured", arrival)
		}
	}
}

// TestSeedChangesSchedule guards against the seed being ignored.
func TestSeedChangesSchedule(t *testing.T) {
	t.Parallel()
	cfg := openCfg(params.ArrivalPoisson, params.TopoFlat, 6)
	a := Run(cfg, 10_000, 30_000)
	wl2 := *cfg.Workload
	wl2.Seed = 99
	cfg.Workload = &wl2
	b := Run(cfg, 10_000, 30_000)
	if a == b {
		t.Fatal("different seeds produced identical runs")
	}
}

// TestOpenLoopComposesEverywhere smoke-tests the generator over every
// NI design (including DMA) on both fabrics.
func TestOpenLoopComposesEverywhere(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("composition sweep in -short mode")
	}
	nis := append(append([]params.NIKind{}, params.AllNIs...), params.DMA)
	for _, ni := range nis {
		for _, topo := range []params.Topology{params.TopoFlat, params.TopoTorus} {
			wl := params.DefaultWorkload()
			wl.OfferedMBps = 4
			cfg := params.Config{Nodes: 16, NI: ni, Bus: params.MemoryBus, Topology: topo, Workload: &wl}
			rep := Run(cfg, 10_000, 30_000)
			if rep.Delivered == 0 || rep.Latency.Count() == 0 {
				t.Errorf("%s/%s: no traffic delivered (sent %d, delivered %d)", ni, topo, rep.Sent, rep.Delivered)
			}
		}
	}
}

// TestClosedLoopSelfLimits: closed-loop offered load equals goodput
// and grows with the client population.
func TestClosedLoopSelfLimits(t *testing.T) {
	t.Parallel()
	run := func(clients int) Report {
		wl := params.DefaultWorkload()
		wl.Arrival = params.ArrivalClosed
		wl.Clients = clients
		cfg := params.Config{Nodes: 16, NI: params.CNI512Q, Bus: params.MemoryBus, Workload: &wl}
		return Run(cfg, 10_000, 40_000)
	}
	one, four := run(1), run(4)
	if one.OfferedMBps != one.GoodputMBps {
		t.Errorf("closed loop should self-limit: offered %v != goodput %v", one.OfferedMBps, one.GoodputMBps)
	}
	if four.GoodputMBps <= one.GoodputMBps {
		t.Errorf("4 clients/node should outrun 1: %v <= %v", four.GoodputMBps, one.GoodputMBps)
	}
}

// TestBurstyMatchesLongRunRate: the MMPP's long-run offered load
// matches Poisson's within sampling noise, while its burstiness
// inflates the latency tail at equal load.
func TestBurstyMatchesLongRunRate(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("long windows in -short mode")
	}
	pois := Run(openCfg(params.ArrivalPoisson, params.TopoFlat, 4), 20_000, 400_000)
	burst := Run(openCfg(params.ArrivalBursty, params.TopoFlat, 4), 20_000, 400_000)
	lo, hi := 0.7*pois.GoodputMBps, 1.3*pois.GoodputMBps
	if burst.GoodputMBps < lo || burst.GoodputMBps > hi {
		t.Errorf("bursty long-run goodput %v outside [%v, %v] of poisson's", burst.GoodputMBps, lo, hi)
	}
	if burst.Latency.Quantile(0.99) <= pois.Latency.Quantile(0.99) {
		t.Errorf("bursty p99 %d should exceed poisson p99 %d at equal load",
			burst.Latency.Quantile(0.99), pois.Latency.Quantile(0.99))
	}
}

// TestZipfSkewConcentratesTraffic: with a strong skew the hot node
// receives a disproportionate share.
func TestZipfSkewConcentratesTraffic(t *testing.T) {
	t.Parallel()
	cdf := zipfCDF(16, 1.1)
	if cdf[15] != 1 {
		t.Fatalf("CDF must end at 1, got %v", cdf[15])
	}
	hotShare := cdf[0]
	if hotShare < 0.25 || hotShare > 0.45 {
		t.Errorf("Zipf(1.1) hot share = %v, want ~0.34", hotShare)
	}
	uniform := zipfCDF(16, 0)
	if uniform[0] < 0.06 || uniform[0] > 0.07 {
		t.Errorf("Zipf(0) should be uniform, first share = %v", uniform[0])
	}
}

// steadyStateAllocs runs cfg's open loop to 50k cycles, warms it
// further with throwaway 2k-cycle windows up to cycle warm — FIFO
// rings, map buckets and free lists grow toward their steady-state
// capacity over the first few hundred thousand cycles, and measuring
// before they settle reports residual growth as per-window allocation
// — then measures 100 windows. It returns the allocations per window,
// the events those windows ran and the messages they delivered.
func steadyStateAllocs(t *testing.T, cfg params.Config, warm sim.Time) (allocs float64, events, delivered uint64) {
	t.Helper()
	r := newRun(cfg, 10_000, 10_000_000)
	defer r.m.Close()
	sc := scenario.New()
	r.addOpen(sc)
	r.m.RunUntil(sc, 50_000)
	next := sim.Time(50_000)
	for next < warm {
		next += 2_000
		r.m.Advance(next)
	}
	total := func() (n uint64) {
		for _, d := range r.delivered {
			n += d
		}
		return n
	}
	events, delivered = r.m.EventsScheduled(), total()
	allocs = testing.AllocsPerRun(100, func() {
		next += 2_000
		r.m.Advance(next)
	})
	events, delivered = r.m.EventsScheduled()-events, total()-delivered
	if events == 0 || delivered == 0 {
		t.Fatal("steady-state windows dispatched no events")
	}
	return allocs, events, delivered
}

// TestSerialSteadyStateZeroAlloc pins the engine-gating contract from
// the allocation side: the serial ≤16-node path — the machine every
// golden and BENCH canary runs on — must stay at 0 allocs/event in
// steady state. The machine is warmed past capacity growth (event
// heap, frame pools, pending slices), then advanced window by window
// with no scenario bookkeeping; any per-message boxing or closure
// creep on the inject→deliver→record path, the intended-arrival stamp
// included, fails this loudly. It runs on a CQ NI and on each NI
// whose processor side posts uncached stores, whose device queues
// drain and refill every few messages.
func TestSerialSteadyStateZeroAlloc(t *testing.T) {
	for _, ni := range []params.NIKind{params.CNI16Q, params.NI2w, params.CNI4, params.DMA} {
		cfg := openCfg(params.ArrivalPoisson, params.TopoTorus, 6)
		cfg.NI = ni
		if m, err := scenario.Build(cfg); err != nil || m.Sharded() {
			t.Fatalf("%s: 16-node torus must gate onto the serial engine (err %v)", cfg.Name(), err)
		} else {
			m.Close()
		}
		if allocs, events, _ := steadyStateAllocs(t, cfg, 400_000); allocs != 0 {
			t.Errorf("%s: serial steady state allocates %.2f objects per 2k-cycle window (%d events total), want 0 allocs/event",
				cfg.Name(), allocs, events)
		}
	}
}

// TestShardSteadyStateZeroAlloc is the sharded twin: a 64-node torus
// on four shards with uniform destinations (as at scale-1k) carries
// the intended-arrival stamp in a typed frame field, not boxed in the
// payload, so its open loop allocates nothing per message. What
// remains is capacity growth that keeps finding new maxima: frames
// retire into the destination shard's pool, so each shard's pool does
// a random walk and allocates when it runs dry, and link queues and
// window slots grow on rare new peaks. That stays well under one
// allocation per ten delivered messages past a 1M-cycle warm-up; one
// boxed stamp per message would read 1.
func TestShardSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the measured path")
	}
	wl := params.DefaultWorkload()
	wl.OfferedMBps = 6
	wl.ZipfS = 0
	cfg := params.Config{Nodes: 64, NI: params.CNI16Q, Bus: params.MemoryBus,
		Topology: params.TopoTorus, Shards: 4, Workload: &wl}
	allocs, events, delivered := steadyStateAllocs(t, cfg, 1_000_000)
	if perMsg := allocs * 100 / float64(delivered); perMsg >= 0.1 {
		t.Errorf("sharded steady state allocates %.2f objects per 2k-cycle window, %.3f per delivered message (%d events, %d messages total), want below 0.1",
			allocs, perMsg, events, delivered)
	}
}

// TestGeneratorArrivalPathZeroAlloc pins the steady-state arrival
// path — gap sampling, destination pick and size pick; the intended
// arrival then rides in the frame, not in a side queue — at zero
// allocations.
func TestGeneratorArrivalPathZeroAlloc(t *testing.T) {
	wl := params.DefaultWorkload()
	g := &gen{
		rng:     apps.NewRand(7),
		meanGap: 1500,
		dstCDF:  zipfCDF(16, wl.ZipfS),
		sizes:   wl.Sizes,
		sizeSum: 10,
	}
	var sink sim.Time
	allocs := testing.AllocsPerRun(1000, func() {
		sink += g.nextGap() + sim.Time(g.pickDst(3)+g.pickSize())
	})
	if allocs != 0 {
		t.Errorf("poisson arrival path allocates %.1f objects/op, want 0", allocs)
	}
	g.bursty = true
	g.peakGap = 300
	g.meanOn = 4000
	g.meanOff = 12000
	allocs = testing.AllocsPerRun(1000, func() {
		sink += g.nextGap()
	})
	if allocs != 0 {
		t.Errorf("bursty arrival path allocates %.1f objects/op, want 0", allocs)
	}
	_ = sink
}

// TestStampRidesEveryFragment: a stamped message's intended-arrival
// instant reaches the handler intact, on the serial engine through
// the reliable transport's drops, duplicates and retransmits and on
// the sharded engine across shards, for multi-fragment messages; a
// plain send delivers stamp 0.
func TestStampRidesEveryFragment(t *testing.T) {
	t.Parallel()
	const msgs, horizon = 40, 10_000_000
	for _, cfg := range []params.Config{
		{Nodes: 16, NI: params.CNI16Q, Bus: params.MemoryBus, Topology: params.TopoTorus,
			Faults: params.Faults{Seed: 3, DropProb: 0.05, DupProb: 0.05}},
		{Nodes: 64, NI: params.CNI16Q, Bus: params.MemoryBus, Topology: params.TopoTorus, Shards: 4},
	} {
		m, err := scenario.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dst := cfg.Nodes - 1
		got := map[int][]sim.Time{}
		m.Endpoint(dst).Handle(hOpen, func(d *scenario.Delivery) {
			got[d.Src] = append(got[d.Src], d.Stamp)
		})
		// Every node polls to the horizon, so the transport keeps
		// retransmitting and no state is shared across shards.
		sc := scenario.New()
		for _, src := range []int{0, 1, dst} {
			sc.At(src, func(ep *scenario.Endpoint) {
				if src != dst {
					for i := 1; i <= msgs; i++ {
						ep.SendStamped(dst, hOpen, 976, sim.Time(src*1000+i))
					}
					ep.SendTo(dst, hOpen, 64, nil)
				}
				for ep.Clock() < horizon {
					ep.Drain()
					ep.Sleep(pollQuantum)
				}
			})
		}
		m.RunUntil(sc, horizon)
		m.Close()
		if cfg.Faults.Active() && m.Counter("net.retransmits") == 0 {
			t.Errorf("nodes=%d: the faulty run retransmitted nothing", cfg.Nodes)
		}
		for _, src := range []int{0, 1} {
			stamps := got[src]
			if len(stamps) != msgs+1 {
				t.Fatalf("nodes=%d src=%d: %d messages delivered, want %d", cfg.Nodes, src, len(stamps), msgs+1)
			}
			for i, s := range stamps[:msgs] {
				if want := sim.Time(src*1000 + i + 1); s != want {
					t.Errorf("nodes=%d src=%d: message %d stamped %d, want %d", cfg.Nodes, src, i, s, want)
				}
			}
			if s := stamps[msgs]; s != 0 {
				t.Errorf("nodes=%d src=%d: plain send stamped %d, want 0", cfg.Nodes, src, s)
			}
		}
	}
}

// TestNetDeliveryTelemetry: the fabric-level histogram sees every
// delivered network message.
func TestNetDeliveryTelemetry(t *testing.T) {
	t.Parallel()
	rep := Run(openCfg(params.ArrivalPoisson, params.TopoTorus, 6), 10_000, 30_000)
	if rep.NetDelivery.Count() == 0 {
		t.Fatal("net.delivery histogram recorded nothing")
	}
	// Fabric delivery latency on the torus is at least one hop's
	// serialisation + wire time.
	if min := rep.NetDelivery.Min(); min < params.TorusHopLatency {
		t.Errorf("torus delivery min %d below a single hop latency", min)
	}
}
