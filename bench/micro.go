package main

import (
	"time"

	"repro/internal/apps"
	"repro/internal/params"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// probe is one micro probe: run performs n operations of one layer's
// public function and returns the simulator events they scheduled.
// events marks the probes whose events per operation are reported.
type probe struct {
	name   string
	n      int
	events bool
	run    func(n int) uint64
}

// probes time single layers, each through its public functions. The
// iteration counts keep each probe near 0.1 s of host time.
var probes = []probe{
	{"sim_event", 2_000_000, false, probeEvent},
	{"sim_sleep", 400_000, false, probeSleep},
	{"cache_hit", 5_000_000, false, func(n int) uint64 { return probeLoad(n, 0) }},
	{"cache_miss", 1_000_000, false, func(n int) uint64 { return probeLoad(n, params.ProcCacheBytes) }},
	{"rtt_flat", 1_000, true, func(n int) uint64 {
		return probeRTT(params.Config{Nodes: 2, NI: params.CNI512Q, Bus: params.MemoryBus}, 1, n)
	}},
	{"rtt_torus", 200, true, func(n int) uint64 {
		cfg := params.Config{Nodes: 16, NI: params.CNI512Q, Bus: params.MemoryBus, Topology: params.TopoTorus}
		return probeRTT(cfg, apps.ProbeDst(cfg.Nodes), n)
	}},
}

// probeReps is how many times each probe runs; the report takes the
// median.
const probeReps = 3

// probeResult is one probe's median host time per operation and its
// simulator events per operation.
type probeResult struct {
	nsPerOp     float64
	eventsPerOp float64
}

func runProbe(p probe, tr *tracer, parent int) probeResult {
	var ns []float64
	var events uint64
	for i := 0; i < probeReps; i++ {
		id := tr.begin("micro."+p.name, parent, 0)
		t := time.Now()
		events = p.run(p.n)
		ns = append(ns, float64(time.Since(t).Nanoseconds())/float64(p.n))
		tr.end(id)
	}
	return probeResult{nsPerOp: summarize(ns).median, eventsPerOp: float64(events) / float64(p.n)}
}

// probeEvent times Engine.Schedule plus the Run that dispatches it,
// with 64 events parked deeper in the heap.
func probeEvent(n int) uint64 {
	e := sim.NewEngine()
	noop := func() {}
	for i := 0; i < 64; i++ {
		e.ScheduleAt(sim.Forever-sim.Time(i), noop)
	}
	for i := 0; i < n; i++ {
		e.Schedule(1, noop)
		e.Run(e.Now() + 1)
	}
	e.Stop()
	return e.Scheduled()
}

// probeSleep times Process.Sleep(1) in two processes whose wakes
// alternate, so every Sleep hands the engine to the other process.
func probeSleep(n int) uint64 {
	e := sim.NewEngine()
	for k := 0; k < 2; k++ {
		e.Spawn("sleeper", func(p *sim.Process) {
			for i := 0; i < n/2; i++ {
				p.Sleep(1)
			}
		})
	}
	e.RunAll()
	e.Stop()
	return e.Scheduled()
}

// probeLoad times Endpoint.Load of one word on a two-node machine. A
// stride of 0 hits one hot line; a stride of the cache size maps every
// load to the same direct-mapped set with a new tag, so each misses.
func probeLoad(n int, stride uint64) uint64 {
	m, err := scenario.Build(params.Config{Nodes: 2, NI: params.CNI512Q, Bus: params.MemoryBus})
	if err != nil {
		panic(err)
	}
	defer m.Close()
	m.Run(scenario.New().At(0, func(ep *scenario.Endpoint) {
		for i := 0; i < n; i++ {
			ep.Load(uint64(i%64)*stride, 8)
		}
	}))
	return m.EventsScheduled()
}

// probeRTT times 64-byte round trips between node 0 and dst with no
// other traffic, as apps.RoundTrip and apps.ProbeRTT (background off)
// do, on a machine the probe owns so its events can be counted.
func probeRTT(cfg params.Config, dst, n int) uint64 {
	const hPing, hPong = 700, 701
	m, err := scenario.Build(cfg)
	if err != nil {
		panic(err)
	}
	defer m.Close()
	pongs := 0
	m.Endpoint(dst).Handle(hPing, func(d *scenario.Delivery) { d.EP.SendTo(d.Src, hPong, d.Size, nil) })
	m.Endpoint(0).Handle(hPong, func(*scenario.Delivery) { pongs++ })
	m.Run(scenario.New().
		At(0, func(ep *scenario.Endpoint) {
			for r := 1; r <= n; r++ {
				ep.SendTo(dst, hPing, 64, nil)
				ep.PollUntil(func() bool { return pongs == r })
			}
		}).
		At(dst, func(ep *scenario.Endpoint) { ep.PollUntil(func() bool { return pongs == n }) }))
	return m.EventsScheduled()
}
