package main

import (
	"fmt"
	"regexp"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/dcn"
	"repro/internal/harness"
	"repro/internal/params"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// workloadSpec is one benchmark input family. Every input is generated
// from the seed; the simulator receives only the resulting config.
type workloadSpec struct {
	name string
	why  string
	// procs is the GOMAXPROCS the workload runs at (capped by the
	// host's CPUs). A serial machine runs one goroutine at a time, and a
	// second P only adds cross-P wakeups whose cost depends on whatever
	// else the host runs: at 2 the spread of run medians across seeds
	// was 7-9%, at 1 it was 1-3%. The sharded engine gets two cores.
	procs int
	// rep runs one repetition. small selects the smoke-test size (about
	// 1% of the window); layer asks for the simulator's counters, which
	// only the traced rep reads.
	rep func(seed uint64, small, layer bool) repResult
}

// output is one simulated result. Outputs are exact and deterministic
// for a seed; the digest folds them in order.
type output struct {
	name  string
	value uint64
}

// repResult is what one repetition measured.
type repResult struct {
	setupS    float64 // host seconds of machine construction (and teardown)
	runS      float64 // host seconds of the run phase
	simCycles uint64  // simulated cycles the run phase advanced
	outputs   []output
	// layer holds per-layer counter metrics, read from the traced rep
	// only; a workload leaves out what its program does not expose.
	layer map[string]float64
	err   error // a simulated result that cannot be right
}

// workloads lists the benchmark's workloads in run order.
var workloads = []workloadSpec{
	{
		name:  "torus-hotspot",
		why:   "deepest serial event heap, torus link arbitration and the traffic generator, below saturation so host work scales with the window",
		procs: 1,
		rep:   torusHotspot,
	},
	{
		name:  "apps-coherence",
		why:   "the paper's five Table 3 apps: cache, bus, proc, nic and spin-polling processes, bypassing torus, generator and transport",
		procs: 1,
		rep:   appsCoherence,
	},
	{
		name:  "rpc-lossy",
		why:   "closed-loop RPC fan-out over the reliable transport with drops: acks, retransmits, checksums, dedup, fault and dcn",
		procs: 1,
		rep:   rpcLossy,
	},
	{
		name:  "scale-1k",
		why:   "1024-node torus on the sharded engine at two cores, where O(n^2) setup, GC and epoch barriers matter",
		procs: 2,
		rep:   scale1k,
	},
}

// workloadByName returns the named workload.
func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (valid: %v, all)", name, names)
}

// Torus-hotspot point: 0.7x the 19.3 MB/s/node knee rung, so a 4M-cycle
// window stays below saturation and host work grows linearly with it.
const (
	hotspotMBps    = 13.5
	hotspotWarm    = 20_000
	hotspotMeasure = 4_000_000
)

func torusHotspot(seed uint64, small, _ bool) repResult {
	wl := params.DefaultWorkload()
	wl.Seed = seed
	wl.OfferedMBps = hotspotMBps
	cfg := params.Config{Nodes: 16, NI: params.CNI512Q, Bus: params.MemoryBus,
		Topology: params.TopoTorus, Workload: &wl}
	warm, measure := sim.Time(hotspotWarm), sim.Time(hotspotMeasure)
	if small {
		warm, measure = warm/100, measure/100
	}
	return generatorRep(cfg, warm, measure)
}

// The scale point is the Shard4kBench regime (uniform overload, CNI16Q,
// one torus row per shard) at a quarter of its nodes: 1024 nodes peak
// at 136 MB where 4096 take 1.46 GB, a rep takes 0.9 s instead of 5 s,
// and the spread of run medians across seeds was 12% instead of 18%,
// while GC (about 20% of samples) and setup (about 23% of wall time)
// still matter.
const (
	scaleNodes  = 1024
	scaleShards = 32
)

func scale1k(seed uint64, small, _ bool) repResult {
	wl := params.DefaultWorkload()
	wl.Seed = seed
	wl.OfferedMBps = harness.Shard4kBenchPerNodeMBps
	wl.ZipfS = 0
	cfg := params.Config{Nodes: scaleNodes, NI: params.CNI16Q, Bus: params.MemoryBus,
		Topology: params.TopoTorus, Shards: scaleShards, Workload: &wl}
	if small {
		cfg.Nodes, cfg.Shards = 256, 4
	}
	return generatorRep(cfg, harness.Shard4kBenchWarm, harness.Shard4kBenchMeasure)
}

// generatorRep runs a workload.RunTimed point. RunTimed exposes no
// run/setup split beyond its run seconds, so setup is wall time minus
// run time (construction, the pre-run GC, and Close).
func generatorRep(cfg params.Config, warm, measure sim.Time) repResult {
	t0 := time.Now()
	rep, runS := workload.RunTimed(cfg, warm, measure)
	wall := time.Since(t0).Seconds()
	r := repResult{
		setupS:    wall - runS,
		runS:      runS,
		simCycles: uint64(warm + measure),
		outputs: []output{
			{"sent", rep.Sent},
			{"delivered", rep.Delivered},
			{"latency.count", rep.Latency.Count()},
			{"latency.p50_cycles", uint64(rep.Latency.Quantile(0.5))},
			{"latency.p999_cycles", uint64(rep.Latency.Quantile(0.999))},
			{"net.delivery.count", rep.NetDelivery.Count()},
			{"net.delivery.p50_cycles", uint64(rep.NetDelivery.Quantile(0.5))},
			{"net.delivery.p999_cycles", uint64(rep.NetDelivery.Quantile(0.999))},
		},
		layer: map[string]float64{
			"net.delivery_p50_cycles":  float64(rep.NetDelivery.Quantile(0.5)),
			"net.delivery_p999_cycles": float64(rep.NetDelivery.Quantile(0.999)),
		},
	}
	if rep.Sent > 0 {
		r.layer["wl.delivered_ratio"] = float64(rep.Delivered) / float64(rep.Sent)
	}
	if rep.Delivered == 0 || rep.Delivered > rep.Sent {
		r.err = fmt.Errorf("delivered %d of %d sent", rep.Delivered, rep.Sent)
	}
	return r
}

// appsCoherence runs the five Table 3 apps on the fig8 machine. The
// apps build their own machines inside App.Run, so setup is timed by
// separate Build+Close calls for the same config, and the run phase is
// the App.Run calls.
func appsCoherence(seed uint64, small, layer bool) repResult {
	cfg := params.Config{Nodes: 16, NI: params.CNI16Qm, Bus: params.MemoryBus}
	sp, ga, em, md, ab := apps.NewSpsolve(), apps.NewGauss(), apps.NewEm3d(), apps.NewMoldyn(), apps.NewAppbt()
	sp.Seed, em.Seed, ab.Seed = seed, seed, seed
	if small {
		sp.Elements, sp.Levels = 64, 4
		ga.N = 16
		em.GraphNodes, em.Iters = 64, 1
		md.Particles, md.Iters = 128, 1
		ab.CubeDim, ab.Iters = 4, 1
	}
	list := []apps.App{sp, ga, em, md, ab}

	var r repResult
	for range list {
		t := time.Now()
		m, err := scenario.Build(cfg)
		if err != nil {
			return repResult{err: err}
		}
		m.Close()
		r.setupS += time.Since(t).Seconds()
	}

	var c counterSet
	var hist sim.Histogram
	if layer {
		c = counterSet{}
		apps.StatsDump = func(_ params.Config, st *sim.Stats) {
			c.add(st)
			hist.Merge(st.Histogram("net.delivery"))
		}
		defer func() { apps.StatsDump = nil }()
	}
	var busy, nodeCycles uint64
	for _, a := range list {
		t := time.Now()
		res := a.Run(cfg)
		r.runS += time.Since(t).Seconds()
		r.simCycles += uint64(res.Cycles)
		busy += uint64(res.MemBusOccupancy)
		nodeCycles += uint64(res.Cycles) * uint64(cfg.Nodes)
		r.outputs = append(r.outputs,
			output{a.Name() + ".cycles", uint64(res.Cycles)},
			output{a.Name() + ".net_msgs", res.Messages},
			output{a.Name() + ".net_bytes", res.NetBytes},
			output{a.Name() + ".membus_cycles", uint64(res.MemBusOccupancy)},
		)
		if res.Cycles == 0 || res.Messages == 0 {
			r.err = fmt.Errorf("%s ran %d cycles with %d messages", a.Name(), res.Cycles, res.Messages)
		}
	}
	if layer {
		r.layer = c.ratios()
		r.layer["bus.occupancy_frac"] = float64(busy) / float64(nodeCycles)
		r.layer["net.delivery_p50_cycles"] = float64(hist.Quantile(0.5))
		r.layer["net.delivery_p999_cycles"] = float64(hist.Quantile(0.999))
	}
	return r
}

// RPC point: fan-out 8 over a million aggregated closed-loop clients
// on the flat CNI512Q machine, reliable transport with 1e-3 drops.
const (
	rpcFanout  = 8
	rpcThink   = 1_600_000_000
	rpcDrop    = 1e-3
	rpcWarm    = 50_000
	rpcMeasure = 4_000_000
)

// rpcLossy owns its machine (dcn.RunRPCOn), so engine events and the
// machine's counters are readable after the run.
func rpcLossy(seed uint64, small, layer bool) repResult {
	cfg := params.Config{Nodes: 16, NI: params.CNI512Q, Bus: params.MemoryBus,
		Faults: params.Faults{Seed: seed, DropProb: rpcDrop, Transport: true}}
	spec := dcn.DefaultRPCSpec()
	spec.Seed = seed
	spec.ThinkCycles = rpcThink
	tier := spec.Tiers[0]
	tier.Fanout = rpcFanout
	spec.Tiers = []dcn.Tier{tier}
	warm, measure := sim.Time(rpcWarm), sim.Time(rpcMeasure)
	if small {
		warm, measure = warm/100, measure/100
	}

	t0 := time.Now()
	m, err := scenario.Build(cfg)
	if err != nil {
		return repResult{err: err}
	}
	t1 := time.Now()
	rep, err := dcn.RunRPCOn(m, spec, warm, measure)
	t2 := time.Now()
	if err != nil {
		m.Close()
		return repResult{err: err}
	}
	st := m.Stats()
	r := repResult{
		runS:      t2.Sub(t1).Seconds(),
		simCycles: uint64(warm + measure),
		outputs: []output{
			{"rpc.issued", rep.Issued},
			{"rpc.completed", rep.Completed},
			{"rpc.queued", rep.Queued},
			{"rpc.latency.count", rep.Latency.Count()},
			{"rpc.latency.p50_cycles", uint64(rep.Latency.Quantile(0.5))},
			{"rpc.latency.p999_cycles", uint64(rep.Latency.Quantile(0.999))},
		},
	}
	delivery := st.Histogram("net.delivery")
	r.outputs = append(r.outputs,
		output{"net.delivery.p50_cycles", uint64(delivery.Quantile(0.5))},
		output{"net.delivery.p999_cycles", uint64(delivery.Quantile(0.999))})
	for _, name := range st.Counters() {
		if strings.HasPrefix(name, "net.") {
			r.outputs = append(r.outputs, output{name, st.Get(name)})
		}
	}
	if layer {
		c := counterSet{}
		c.add(st)
		r.layer = c.ratios()
		events := m.EventsScheduled()
		r.layer["sim.events"] = float64(events)
		r.layer["sim.events_per_kcycle"] = float64(events) * 1000 / float64(warm+measure)
		r.layer["bus.occupancy_frac"] = float64(m.BusOccupancy()) / float64(uint64(m.Clock())*uint64(cfg.Nodes))
		r.layer["net.delivery_p50_cycles"] = float64(delivery.Quantile(0.5))
		r.layer["net.delivery_p999_cycles"] = float64(delivery.Quantile(0.999))
	}
	if rep.Completed == 0 || st.Get("net.dead") != 0 {
		r.err = fmt.Errorf("completed %d calls, %d frames dead", rep.Completed, st.Get("net.dead"))
	}
	t3 := time.Now()
	m.Close()
	r.setupS = t1.Sub(t0).Seconds() + time.Since(t3).Seconds()
	return r
}

// counterSet sums a machine's counters with the per-node prefix
// removed (node7.cache.load.hit counts as cache.load.hit).
type counterSet map[string]uint64

var nodePrefix = regexp.MustCompile(`^node[0-9]+\.`)

func (c counterSet) add(st *sim.Stats) {
	for _, name := range st.Counters() {
		c[nodePrefix.ReplaceAllString(name, "")] += st.Get(name)
	}
}

// ratios derives the counter-based per-layer metrics.
func (c counterSet) ratios() map[string]float64 {
	ratio := func(num, den uint64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	var tx uint64
	for name, v := range c {
		if strings.HasPrefix(name, "tx.") {
			tx += v
		}
	}
	return map[string]float64{
		"cache.load_hit_ratio":   ratio(c["cache.load.hit"], c["cache.load.hit"]+c["cache.load.miss"]),
		"cache.store_hit_ratio":  ratio(c["cache.store.hit"], c["cache.store.hit"]+c["cache.store.miss"]),
		"bus.tx":                 float64(tx),
		"cpu.membar_stalls":      float64(c["cpu.membar.stall"]),
		"cpu.sb_full":            float64(c["cpu.sb.full"]),
		"ni.poll_useful_ratio":   ratio(c["ni.recv.msg"], c["ni.recv.msg"]+c["ni.recv.poll.empty"]),
		"ni.recv_qfull":          float64(c["ni.recv.qfull"]),
		"msg.send_block":         float64(c["msg.send.block"]),
		"msg.swbuffered":         float64(c["msg.swbuffered"]),
		"net.msgs":               float64(c["net.msg"]),
		"net.backpressure_ratio": ratio(c["net.backpressure"], c["net.msg"]+c["net.backpressure"]),
		"net.window_stall":       float64(c["net.window.stall"]),
		"net.retransmit_ratio":   ratio(c["net.retransmits"], c["net.msg"]),
		"net.acks":               float64(c["net.acks"]),
		"net.dup_suppressed":     float64(c["net.dup_suppressed"]),
		"rpc.completed_ratio":    ratio(c["rpc.completed"], c["rpc.calls"]),
	}
}
