package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	cni "repro"
	"repro/internal/harness"
	"repro/internal/sim"
)

// benchReport is the machine-readable performance snapshot written by
// `cnisim benchjson`. Fields with _cycles/_mbps suffixes are simulated
// results (they must not drift without a model change); _per_sec and
// _ms fields are host-performance numbers that track the perf
// trajectory of the simulator itself.
type benchReport struct {
	Timestamp  string `json:"timestamp"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	// Engine substrate.
	EngineEventsPerSec   float64 `json:"engine_events_per_sec"`
	EngineAllocsPerEvent float64 `json:"engine_allocs_per_event"`

	// Heaviest-path simulator throughput: one torus loadsweep point at
	// the saturation knee (the BenchmarkTorusLoadsweep workload),
	// reported as delivered user messages per wall-clock second. The
	// delivered count is simulated and exact — --check diffs it — while
	// the per-second rate is host perf (--check only requires the
	// committed snapshot to carry one, so the metric cannot silently
	// vanish). PreSoA is the same metric measured on the pre-SoA
	// pre-direct-handoff simulator on the reference host, kept as the
	// denominator of the recorded speedup.
	TorusLoadsweepEventsPerSec  float64 `json:"torus_loadsweep_events_per_sec"`
	TorusLoadsweepDeliveredMsgs uint64  `json:"torus_loadsweep_delivered_msgs"`
	TorusLoadsweepPreSoAPerSec  float64 `json:"torus_loadsweep_events_per_sec_pre_soa"`

	// Simulated headline results (determinism canaries).
	RTT64BCNI512QCycles uint64  `json:"rtt_64B_cni512q_cycles"`
	BW4KBCNI512QMBps    float64 `json:"bw_4096B_cni512q_mbps"`
	// TorusProbeRTTCycles pins the congestion model: probe RTT under
	// heavy hotspot load on the 16-node torus.
	TorusProbeRTTCycles uint64 `json:"torus_hotspot_rtt_64B_cni512q_cycles"`
	// The loadsweep canaries pin the workload/telemetry subsystem:
	// CNI512Q's saturation offered load (knee) for the Zipf-hotspot
	// workload per fabric. The torus value must sit strictly below
	// the flat one — converging hotspot flows queue on shared links —
	// and --check enforces the relation as well as the exact values.
	LoadsweepFlatKneeMBps  float64 `json:"loadsweep_flat_knee_cni512q_mbps"`
	LoadsweepTorusKneeMBps float64 `json:"loadsweep_torus_knee_cni512q_mbps"`

	// The datacenter-pack canaries pin the dcn subsystem. The rpc knee
	// is p99.9 at the top of the fan-out ladder (k=8) on the sweep's
	// headline cell (CNI512Q, flat, sweep windows and population): the
	// tail-at-scale number the rpc table leads with. The ring-allreduce
	// completions pin the collective scheduler per fabric; --check also
	// enforces flat < torus (the torus serialises the ring's neighbour
	// hops over shared links).
	RPCP999K8CNI512QUs       float64 `json:"rpc_p999_k8_cni512q_us"`
	RingAllreduceFlatCycles  uint64  `json:"ring_allreduce_flat_cni512q_cycles"`
	RingAllreduceTorusCycles uint64  `json:"ring_allreduce_torus_cni512q_cycles"`

	// The sharded-engine canaries: the Shard4kBench point (uniform
	// overload, 4096-node torus) on the sharded engine at 64 shards vs
	// the legacy serial engine. The delivered count is simulated and
	// exact — --check diffs it and additionally re-runs the point at 1
	// shard, which must deliver identically (shard-count invariance at
	// scale) — while the per-second rates and the speedup are host perf:
	// --check gates the speedup above shard4kMinSpeedup using best-of-3
	// run-phase timings. Events here are delivered user messages per
	// wall-clock second of run phase (construction excluded), the same
	// convention as torus_loadsweep_events_per_sec.
	EventsPerSec4kNodes       float64 `json:"events_per_sec_4k_nodes"`
	EventsPerSec4kNodesSerial float64 `json:"events_per_sec_4k_nodes_serial"`
	Shard4kDeliveredMsgs      uint64  `json:"shard_4k_delivered_msgs"`
	Shard4kSpeedup            float64 `json:"shard_4k_speedup"`

	// TraceOverheadPct is the wall-clock cost of full telemetry
	// (lifecycle recorder + sampler at the default period) on the same
	// torus loadsweep point, in percent over the untraced run. The
	// traced run's delivered count must equal the untraced canary —
	// tracing is inert — and --check gates the overhead under 15%.
	TraceOverheadPct float64 `json:"trace_overhead_pct"`

	// Experiment-harness wall clock (host).
	Fig6MemoryWallMs float64 `json:"fig6_memory_wall_ms"`
	Fig7MemoryWallMs float64 `json:"fig7_memory_wall_ms"`

	// Fresh-only measurements --check compares but the snapshot does not
	// carry: the 4096-node point at one shard, and the traced torus
	// loadsweep point.
	oneShardDelivered, tracedDelivered uint64
}

// engineThroughput measures steady-state schedule+dispatch events/sec
// and allocations per event on a fresh engine.
func engineThroughput() (eps, allocsPerEvent float64) {
	const events = 2_000_000
	const fanout = 64
	e := sim.NewEngine()
	n := 0
	fn := func() { n++ }
	// Warm population: one pending event per cycle 0..fanout-1. Each
	// measured iteration pops exactly the event at time i and pushes a
	// replacement at i+fanout, holding the queue at a constant
	// fanout-event depth (the same regime BenchmarkEngineEvents pins).
	for i := 0; i < fanout; i++ {
		e.Schedule(sim.Time(i), fn)
	}
	// One untimed lap first, so the queue's storage (the heap's slice and
	// the calendar ring's slab, which Run grows) has reached the population.
	for i := 0; i < fanout; i++ {
		e.Run(sim.Time(i))
		e.Schedule(fanout, fn)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := fanout; i < fanout+events; i++ {
		e.Run(sim.Time(i))
		e.Schedule(fanout, fn)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	e.RunAll()
	return float64(events) / wall.Seconds(),
		float64(after.Mallocs-before.Mallocs) / float64(events)
}

// preSoAEventsPerSec is torus_loadsweep_events_per_sec measured at the
// commit before the struct-of-arrays + direct-handoff scheduler work,
// on the reference host that produced the committed BENCH_sim.json.
const preSoAEventsPerSec = 7128.0

// torusLoadsweepRun runs the heaviest-path load point once under the
// given trace spec and returns its wall-clock seconds and the
// (deterministic) delivered count.
func torusLoadsweepRun(spec cni.TraceSpec) (secs float64, delivered uint64) {
	wl := cni.DefaultWorkload()
	wl.OfferedMBps = cni.LoadsweepBenchPerNodeMBps
	cfg := cni.Config{Nodes: cni.LoadsweepBenchNodes, NI: cni.CNI512Q,
		Bus: cni.MemoryBus, Topology: cni.TopoTorus, Workload: &wl, Trace: spec}
	start := time.Now()
	rep := cni.MeasureLoad(cfg, cni.LoadsweepBenchWarm, cni.LoadsweepBenchMeasure)
	return time.Since(start).Seconds(), rep.Delivered
}

// fastest runs f three times, to damp host scheduling noise, and
// returns the shortest run's seconds and the (deterministic) delivered
// count.
func fastest(f func() (secs float64, delivered uint64)) (secs float64, delivered uint64) {
	secs = math.Inf(1)
	for i := 0; i < 3; i++ {
		s, d := f()
		secs, delivered = min(secs, s), d
	}
	return secs, delivered
}

// shard4kMinSpeedup is the floor --check enforces on the sharded
// engine's run-phase speedup over the serial engine at 4096 nodes.
// The win comes from the shards running in parallel and from each
// epoch touching one 64-node row's state instead of striding the whole
// machine. With GOMAXPROCS=1 only the second applies: the speedup
// measures about 1.4x there, and --check fails.
const shard4kMinSpeedup = 1.5

// shard4kPoint runs the Shard4kBench workload point at the given shard
// count (0 = legacy serial engine) and returns its run-phase wall-clock
// seconds and the (deterministic) delivered count.
func shard4kPoint(shards int) (secs float64, delivered uint64) {
	wl := cni.DefaultWorkload()
	wl.OfferedMBps = cni.Shard4kBenchPerNodeMBps
	wl.ZipfS = 0 // uniform destinations; see harness.Shard4kBench*
	cfg := cni.Config{Nodes: cni.Shard4kBenchNodes, NI: cni.CNI16Q,
		Bus: cni.MemoryBus, Topology: cni.TopoTorus, Shards: shards, Workload: &wl}
	rep, secs := cni.MeasureLoadTimed(cfg, cni.Shard4kBenchWarm, cni.Shard4kBenchMeasure)
	return secs, rep.Delivered
}

// shard4kSpeedup measures the sharded-vs-serial run-phase speedup at
// the Shard4kBench point, best of three runs each to damp host
// scheduling noise, and returns both rates plus the sharded run's
// delivered count.
func shard4kSpeedup() (eps, epsSerial, speedup float64, delivered uint64) {
	serialSecs, serialDelivered := fastest(func() (float64, uint64) { return shard4kPoint(0) })
	secs, delivered := fastest(func() (float64, uint64) { return shard4kPoint(cni.Shard4kBenchShards) })
	return float64(delivered) / secs, float64(serialDelivered) / serialSecs, serialSecs / secs, delivered
}

// traceOverhead measures the telemetry tax: the torus loadsweep point
// with and without the full trace spec (recorder + default-period
// sampler), best of three each to damp host scheduling noise. It also
// returns the traced run's delivered count so --check can pin trace
// inertness on the heaviest path.
func traceOverhead() (pct float64, tracedDelivered uint64) {
	spec := cni.TraceSpec{Enabled: true, SampleEvery: cni.TraceSampleDefault}
	offSecs, offDelivered := fastest(func() (float64, uint64) { return torusLoadsweepRun(cni.TraceSpec{}) })
	onSecs, tracedDelivered := fastest(func() (float64, uint64) { return torusLoadsweepRun(spec) })
	off, on := float64(offDelivered)/offSecs, float64(tracedDelivered)/onSecs
	return (off/on - 1) * 100, tracedDelivered
}

func timeTable(f func() *harness.Table) float64 {
	start := time.Now()
	f()
	return float64(time.Since(start).Microseconds()) / 1000
}

// canaries computes the simulated determinism canaries (no host-perf
// fields), shared by the write and --check paths.
func canaries(r *benchReport) {
	cfg := cni.Config{Nodes: 2, NI: cni.CNI512Q, Bus: cni.MemoryBus}
	r.RTT64BCNI512QCycles = uint64(cni.RoundTrip(cfg, 64, 4))
	r.BW4KBCNI512QMBps = cni.Bandwidth(cfg, 4096, 200)
	torus := cni.Config{Nodes: 16, NI: cni.CNI512Q, Bus: cni.MemoryBus, Topology: cni.TopoTorus}
	r.TorusProbeRTTCycles = uint64(cni.ProbeRTT(torus, 64, 8, 1000))
	_, _, rows := cni.LoadSweep(cni.SweepOptions{NIs: []cni.NIKind{cni.CNI512Q}})
	r.LoadsweepFlatKneeMBps = rows[0].KneeOfferedMBps
	r.LoadsweepTorusKneeMBps = rows[1].KneeOfferedMBps
	secs, delivered := torusLoadsweepRun(cni.TraceSpec{})
	r.TorusLoadsweepEventsPerSec, r.TorusLoadsweepDeliveredMsgs = float64(delivered)/secs, delivered
	r.TorusLoadsweepPreSoAPerSec = preSoAEventsPerSec

	// Datacenter pack: the rpc sweep's headline tail point and the
	// ring-allreduce completion per fabric. Specs are constructed, not
	// user input, so a run error is a bug.
	rpcFlat := cni.Config{Nodes: 16, NI: cni.CNI512Q, Bus: cni.MemoryBus}
	rpcRep, err := cni.RunRPC(rpcFlat, cni.RPCSpecFor(cni.RPCOptions{}, 8, cni.RPCSweepThink),
		cni.RPCSweepWarm, cni.RPCSweepMeasure)
	if err != nil {
		panic(err)
	}
	r.RPCP999K8CNI512QUs = cni.Microseconds(rpcRep.Latency.Quantile(0.999))
	ringCycles := func(topo cni.Topology) uint64 {
		cfg := cni.Config{Nodes: 16, NI: cni.CNI512Q, Bus: cni.MemoryBus, Topology: topo}
		rep, err := cni.RunCollective(cfg, cni.DefaultCollectiveSpec())
		if err != nil {
			panic(err)
		}
		return uint64(rep.CompletionCycles)
	}
	r.RingAllreduceFlatCycles = ringCycles(cni.TopoFlat)
	r.RingAllreduceTorusCycles = ringCycles(cni.TopoTorus)
}

// exact pins a simulated field: fresh must equal committed.
func exact(key string, get func(*benchReport) any) func(c, f *benchReport) string {
	return func(c, f *benchReport) string {
		return unless(get(c) == get(f), "%s: committed %v, fresh %v", key, get(c), get(f))
	}
}

// unless is the drift message of a gate: "" when ok holds.
func unless(ok bool, format string, args ...any) string {
	if ok {
		return ""
	}
	return fmt.Sprintf(format, args...)
}

// canaryGates are --check's gates over the committed snapshot c and a
// fresh measurement f, in report order: exact simulated fields, strict
// relations between fresh simulated values, host-timed floors and
// budgets, and host measurements the snapshot must carry. Each returns
// its drift message, or "" when it holds.
var canaryGates = []func(c, f *benchReport) string{
	exact("rtt_64B_cni512q_cycles", func(r *benchReport) any { return r.RTT64BCNI512QCycles }),
	exact("bw_4096B_cni512q_mbps", func(r *benchReport) any { return r.BW4KBCNI512QMBps }),
	exact("torus_hotspot_rtt_64B_cni512q_cycles", func(r *benchReport) any { return r.TorusProbeRTTCycles }),
	exact("loadsweep_flat_knee_cni512q_mbps", func(r *benchReport) any { return r.LoadsweepFlatKneeMBps }),
	exact("loadsweep_torus_knee_cni512q_mbps", func(r *benchReport) any { return r.LoadsweepTorusKneeMBps }),
	exact("torus_loadsweep_delivered_msgs", func(r *benchReport) any { return r.TorusLoadsweepDeliveredMsgs }),
	exact("rpc_p999_k8_cni512q_us", func(r *benchReport) any { return r.RPCP999K8CNI512QUs }),
	exact("ring_allreduce_flat_cni512q_cycles", func(r *benchReport) any { return r.RingAllreduceFlatCycles }),
	exact("ring_allreduce_torus_cni512q_cycles", func(r *benchReport) any { return r.RingAllreduceTorusCycles }),
	func(_, f *benchReport) string {
		return unless(f.RingAllreduceFlatCycles < f.RingAllreduceTorusCycles,
			"ring-allreduce inversion: flat %d cycles must complete strictly before torus %d (neighbour hops serialise on shared torus links)",
			f.RingAllreduceFlatCycles, f.RingAllreduceTorusCycles)
	},
	func(c, _ *benchReport) string {
		return unless(c.TorusLoadsweepEventsPerSec > 0,
			"torus_loadsweep_events_per_sec: committed snapshot carries no throughput; regenerate with `cnisim benchjson`")
	},
	func(c, _ *benchReport) string {
		return unless(c.TraceOverheadPct != 0,
			"trace_overhead_pct: committed snapshot carries no trace-overhead measurement; regenerate with `cnisim benchjson`")
	},
	func(c, _ *benchReport) string {
		return unless(c.EventsPerSec4kNodes > 0 && c.Shard4kSpeedup != 0,
			"events_per_sec_4k_nodes: committed snapshot carries no sharded-engine measurement; regenerate with `cnisim benchjson`")
	},
	// The sharded-engine canaries: the 4096-node point's delivered
	// count is exact; one shard must reproduce sixteen (shard-count
	// invariance at scale, the serial-reference ordering); and sharding
	// must actually pay on the host.
	exact("shard_4k_delivered_msgs", func(r *benchReport) any { return r.Shard4kDeliveredMsgs }),
	func(_, f *benchReport) string {
		return unless(f.oneShardDelivered == f.Shard4kDeliveredMsgs,
			"shard-count variance: 1 shard delivered %d messages at 4096 nodes, %d shards delivered %d",
			f.oneShardDelivered, cni.Shard4kBenchShards, f.Shard4kDeliveredMsgs)
	},
	func(_, f *benchReport) string {
		return unless(f.Shard4kSpeedup > shard4kMinSpeedup,
			"shard_4k_speedup: fresh measurement %.2fx is under the %.1fx floor over the serial engine",
			f.Shard4kSpeedup, shard4kMinSpeedup)
	},
	// The telemetry canary: tracing the heaviest path must not change
	// what the simulation computes and must stay cheap on the host.
	func(c, f *benchReport) string {
		return unless(f.tracedDelivered == c.TorusLoadsweepDeliveredMsgs,
			"traced torus loadsweep delivered %d messages, untraced canary is %d: tracing perturbed the simulation",
			f.tracedDelivered, c.TorusLoadsweepDeliveredMsgs)
	},
	func(_, f *benchReport) string {
		return unless(f.TraceOverheadPct < 15, "trace_overhead_pct: fresh measurement %.1f%% breaches the 15%% budget", f.TraceOverheadPct)
	},
	func(_, f *benchReport) string {
		return unless(f.LoadsweepTorusKneeMBps < f.LoadsweepFlatKneeMBps,
			"loadsweep saturation inversion: torus knee %v MB/s must sit strictly below flat %v MB/s",
			f.LoadsweepTorusKneeMBps, f.LoadsweepFlatKneeMBps)
	},
}

func benchjsonCmd(_ string, o *opts) func(string) error {
	out := o.String("out", "BENCH_sim.json", "snapshot path")
	check := o.Bool("check", false, "compare fresh canaries against the committed snapshot instead of writing")
	return func(string) error {
		if *check {
			return checkCanaries(*out)
		}
		var r benchReport
		r.Timestamp = time.Now().UTC().Format(time.RFC3339)
		r.GoVersion = runtime.Version()
		r.GOMAXPROCS = runtime.GOMAXPROCS(0)
		r.EngineEventsPerSec, r.EngineAllocsPerEvent = engineThroughput()
		canaries(&r)
		r.TraceOverheadPct, _ = traceOverhead()
		r.EventsPerSec4kNodes, r.EventsPerSec4kNodesSerial, r.Shard4kSpeedup,
			r.Shard4kDeliveredMsgs = shard4kSpeedup()
		r.Fig6MemoryWallMs = timeTable(func() *harness.Table { return harness.Fig6(cni.MemoryBus) })
		r.Fig7MemoryWallMs = timeTable(func() *harness.Table { return harness.Fig7(cni.MemoryBus) })
		data, err := json.MarshalIndent(&r, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *out)
		return nil
	}
}

// checkCanaries reads the snapshot at path, then measures afresh and
// runs canaryGates on the two, so timing-model drift fails CI instead
// of being silently overwritten.
func checkCanaries(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var committed, fresh benchReport
	if err := json.Unmarshal(data, &committed); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	canaries(&fresh)
	fresh.EventsPerSec4kNodes, fresh.EventsPerSec4kNodesSerial, fresh.Shard4kSpeedup,
		fresh.Shard4kDeliveredMsgs = shard4kSpeedup()
	_, fresh.oneShardDelivered = shard4kPoint(1)
	fresh.TraceOverheadPct, fresh.tracedDelivered = traceOverhead()
	var drift []string
	for _, gate := range canaryGates {
		if msg := gate(&committed, &fresh); msg != "" {
			drift = append(drift, msg)
		}
	}
	if len(drift) > 0 {
		return fmt.Errorf("simulated canaries drifted from %s (a timing-model change must update the snapshot deliberately):\n  %s",
			path, strings.Join(drift, "\n  "))
	}
	fmt.Printf("canaries match %s\n", path)
	return nil
}
