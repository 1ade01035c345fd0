// Package cni is an open-source reproduction of "Coherent Network
// Interfaces for Fine-Grain Communication" (Mukherjee, Falsafi, Hill
// & Wood, ISCA 1996).
//
// The paper's idea: instead of uncachable device registers, let the
// network interface participate in the node's snooping cache
// coherence protocol. Two mechanisms make that pay off — cachable
// device registers (CDRs) and cachable queues (CQs) with lazy
// pointers, message valid bits, and sense reverse.
//
// The package exposes four layers:
//
//   - The CQ algorithm itself as a practical single-producer/
//     single-consumer queue between goroutines (Queue, Register) —
//     see cq.go.
//
//   - The scenario API: Build constructs the paper's simulated
//     machine (MOESI snooping caches, multiplexed memory and I/O
//     buses, an I/O bridge, the five NI designs
//     NI2w/CNI4/CNI16Q/CNI512Q/CNI16Qm, and a pluggable
//     sliding-window fabric) once and hands out per-node Endpoints;
//     Machine.Run executes a user-written Scenario — one Go function
//     per node, run as simulated processes — and returns a typed
//     Trace. Every benchmark in this repository is written against
//     this same API.
//
//   - Canned measurement entry points over that machine (RoundTrip,
//     Bandwidth, MeasureLoad, RunBenchmark, ...).
//
//   - The typed experiment registry that regenerates every table and
//     figure in the paper's evaluation with uniform machine-readable
//     output (Experiments, ExperimentData).
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for
// paper-vs-measured results.
package cni

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/params"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Machine is one built simulated machine with per-node Endpoints:
// construct it with Build, script it with NewScenario + Machine.Run,
// and Close it when done. Simulated time accumulates across runs.
type Machine = scenario.Machine

// Endpoint is one node's interface to the machine: Send/TrySend/Recv
// plus active-message handlers (Handle, SendTo, Poll, PollUntil) and
// local costs (Compute, Load, Store, Sleep). Its methods charge the
// configured NI/bus/fabric's simulated costs to the node's process.
type Endpoint = scenario.Endpoint

// Scenario is an ordered set of per-node programs; build one with
// NewScenario().At(node, body) and execute it with Machine.Run.
type Scenario = scenario.Scenario

// NodeFunc is one node's program within a Scenario.
type NodeFunc = scenario.NodeFunc

// Trace is a scenario run's typed result: runtime cycles, per-counter
// deltas, and latency histograms.
type Trace = scenario.Trace

// Message is one user message as seen by Endpoint.Recv.
type Message = scenario.Message

// Handler is an active-message handler installed via Endpoint.Handle.
type Handler = scenario.Handler

// Delivery is what a Handler receives.
type Delivery = scenario.Delivery

// Build constructs a simulated machine for cfg and exposes its
// per-node Endpoints. The machine is reusable across scenario runs;
// Close it when done.
func Build(cfg Config) (*Machine, error) { return scenario.Build(cfg) }

// NewScenario returns an empty scenario for Machine.Run.
func NewScenario() *Scenario { return scenario.New() }

// Config selects a machine configuration: node count, NI design, bus
// attachment, and optional features/ablations.
type Config = params.Config

// NIKind identifies one of the paper's five NI designs.
type NIKind = params.NIKind

// BusKind identifies where the NI attaches.
type BusKind = params.BusKind

// The five network interface designs (paper Table 1).
const (
	NI2w    = params.NI2w
	CNI4    = params.CNI4
	CNI16Q  = params.CNI16Q
	CNI512Q = params.CNI512Q
	CNI16Qm = params.CNI16Qm
	// DMA is this reproduction's user-level-DMA comparator (the
	// comparison the paper lists as its open weakness).
	DMA = params.DMA
)

// NI attachment points (paper §4.1, §5).
const (
	CacheBus  = params.CacheBus
	MemoryBus = params.MemoryBus
	IOBus     = params.IOBus
)

// Topology identifies the interconnect fabric model.
type Topology = params.Topology

// Interconnect fabrics (Config.Topology).
const (
	// TopoFlat is the paper's contention-free constant-latency
	// network (the default).
	TopoFlat = params.TopoFlat
	// TopoTorus is the 2D torus with dimension-order routing and
	// per-link contention.
	TopoTorus = params.TopoTorus
)

// ParseTopology resolves a CLI topology name ("flat" or "torus").
func ParseTopology(s string) (Topology, error) { return params.ParseTopology(s) }

// ArrivalKind selects a workload arrival process.
type ArrivalKind = params.ArrivalKind

// The workload arrival processes (internal/workload).
const (
	ArrivalPoisson = params.ArrivalPoisson
	ArrivalBursty  = params.ArrivalBursty
	ArrivalClosed  = params.ArrivalClosed
)

// ParseArrival resolves a CLI arrival-process name ("poisson",
// "bursty", or "closed").
func ParseArrival(s string) (ArrivalKind, error) { return params.ParseArrival(s) }

// ParseNI resolves a CLI NI design name (case-insensitive).
func ParseNI(s string) (NIKind, error) { return params.ParseNI(s) }

// Workload configures the deterministic traffic generators; attach
// one to Config.Workload and measure with MeasureLoad.
type Workload = params.Workload

// DefaultWorkload is the load sweep's reference traffic spec.
func DefaultWorkload() Workload { return params.DefaultWorkload() }

// LoadReport is one measured workload run: offered load, goodput, and
// the end-to-end latency histogram.
type LoadReport = workload.Report

// MeasureLoad runs cfg's workload (cfg.Workload, nil for the default)
// for warm + measure cycles and reports goodput and tail latency from
// the measurement window.
func MeasureLoad(cfg Config, warm, measure Cycles) LoadReport {
	return workload.Run(cfg, warm, measure)
}

// MeasureLoadTimed is MeasureLoad plus the run phase's wall-clock
// seconds (machine construction excluded) — the denominator the
// sharded-engine speedup canary compares across Config.Shards values.
func MeasureLoadTimed(cfg Config, warm, measure Cycles) (LoadReport, float64) {
	return workload.RunTimed(cfg, warm, measure)
}

// Faults configures the deterministic fault-injection layer: seeded
// per-message drop/corrupt/duplicate/delay probabilities, a
// degraded-link window, node pause/crash schedules, and the reliable
// transport switch. The zero value injects nothing and leaves every
// simulation byte-identical to a fault-free build.
type Faults = params.Faults

// FaultPause stalls one node's NI over a simulated-time window.
type FaultPause = params.FaultPause

// FaultCrash kills one node's NI at a simulated time.
type FaultCrash = params.FaultCrash

// TraceSpec configures the zero-overhead telemetry subsystem
// (internal/trace): Enabled turns on message-lifecycle recording into
// per-node rings, SampleEvery > 0 adds the periodic time-series
// sampler, which reads the machine between slices of its run. The zero
// value wires nothing and leaves every simulation byte-identical to an
// untraced build; a traced one dispatches the same events in the same
// order, on sharded machines too. Attach one to Config.Trace;
// read the handles back with Machine.TraceRecorder /
// Machine.TraceSampler and export Perfetto-loadable Chrome trace JSON
// with Machine.WriteTrace. (The name Trace is already taken by the
// scenario run result.)
type TraceSpec = params.Trace

// TraceSummary accounts for one trace export: record, span, and
// sample counts (Machine.WriteTrace's result).
type TraceSummary = trace.Summary

// Default trace-ring capacity (records per node) and sampling period
// (cycles), applied when TraceSpec leaves them zero.
const (
	TraceRingDefault   = params.TraceRingDefault
	TraceSampleDefault = params.TraceSampleDefault
)

// LoadsweepBench* pin the "heaviest path" benchmark load point shared
// by BenchmarkTorusLoadsweep and the benchjson
// torus_loadsweep_events_per_sec canary: the default sweep's machine
// at the CNI512Q torus saturation knee.
const (
	LoadsweepBenchNodes       = harness.LoadsweepBenchNodes
	LoadsweepBenchWarm        = harness.LoadsweepBenchWarm
	LoadsweepBenchMeasure     = harness.LoadsweepBenchMeasure
	LoadsweepBenchPerNodeMBps = harness.LoadsweepBenchPerNodeMBps
)

// Shard4kBench* pin the sharded-engine benchmark point shared by
// BenchmarkShard4kNodes and the benchjson events_per_sec_4k_nodes
// canary: uniform overload on a 4096-node torus, serial engine vs 64
// shards (see internal/harness/shardbench.go for the regime).
const (
	Shard4kBenchNodes       = harness.Shard4kBenchNodes
	Shard4kBenchShards      = harness.Shard4kBenchShards
	Shard4kBenchWarm        = harness.Shard4kBenchWarm
	Shard4kBenchMeasure     = harness.Shard4kBenchMeasure
	Shard4kBenchPerNodeMBps = harness.Shard4kBenchPerNodeMBps
)

// SweepOptions selects what LoadSweep sweeps.
type SweepOptions = harness.SweepOptions

// SweepRow is one NI × topology load sweep's machine-readable result.
type SweepRow = harness.SweepRow

// LoadSweep steps offered load up a ladder per NI × topology until
// goodput stops tracking it, and reports saturation throughput plus
// tail latency at 30/60/90% of the saturation load: the rendered table,
// its machine-readable Data, and the rows.
func LoadSweep(opt SweepOptions) (*Table, *Data, []SweepRow) { return harness.LoadSweep(opt) }

// FaultOptions selects what FaultSweep sweeps.
type FaultOptions = harness.FaultOptions

// FaultRow is one NI × topology drop-rate ladder with its
// graceful-degradation knee.
type FaultRow = harness.FaultRow

// FaultPoint is one measured (NI, topology, drop rate) cell.
type FaultPoint = harness.FaultPoint

// FaultLadder is the default injected drop-rate ladder.
var FaultLadder = harness.FaultLadder

// FaultSweep climbs the drop-rate ladder per NI × topology with the
// reliable transport engaged on every rung and reports goodput, tail
// latency, and recovery telemetry, plus each row's
// graceful-degradation knee.
func FaultSweep(opt FaultOptions) (*Table, *Data, []FaultRow) { return harness.FaultSweep(opt) }

// AllNIs lists the five designs in the paper's order.
var AllNIs = params.AllNIs

// Cycles is simulation time in 200 MHz processor cycles.
type Cycles = sim.Time

// Microseconds converts cycles to microseconds.
func Microseconds(c Cycles) float64 { return machine.Microseconds(c) }

// RoundTrip measures process-to-process round-trip latency (paper
// Fig 6) for size-byte messages under cfg; rounds are averaged after
// a warm-up. Returns cycles.
func RoundTrip(cfg Config, size, rounds int) Cycles {
	return apps.RoundTrip(cfg, size, rounds)
}

// Bandwidth measures sustainable process-to-process bandwidth (paper
// Fig 7) in MB/s of user payload for size-byte messages under cfg.
func Bandwidth(cfg Config, size, messages int) float64 {
	return apps.Bandwidth(cfg, size, messages)
}

// LocalQueueBandwidth returns the paper's Fig 7 normalisation bound:
// the cache-to-cache bandwidth of a local memory queue between two
// processors on one coherent memory bus (paper: 144 MB/s).
func LocalQueueBandwidth() float64 { return apps.LocalQueueBandwidth() }

// HotspotIncast streams perSender size-byte messages from every other
// node into node 0 and returns the delivered MB/s at the sink.
func HotspotIncast(cfg Config, size, perSender int) float64 {
	return apps.HotspotIncast(cfg, size, perSender)
}

// AllToAllExchange runs a personalised all-to-all and returns average
// cycles per round in steady state.
func AllToAllExchange(cfg Config, size, rounds int) Cycles {
	return apps.AllToAllExchange(cfg, size, rounds)
}

// ProbeRTT measures round-trip latency between node 0 and its torus
// antipode under hotspot background load with the given send gap
// (negative disables the background) — the congestion experiment's
// probe, exposed for one-off measurements.
func ProbeRTT(cfg Config, size, rounds, gap int) Cycles {
	return apps.ProbeRTT(cfg, size, rounds, gap, apps.BgHotspot)
}

// Benchmarks lists the five macrobenchmark names (paper Table 3).
func Benchmarks() []string {
	var out []string
	for _, a := range apps.All() {
		out = append(out, a.Name())
	}
	return out
}

// RunBenchmark executes one macrobenchmark under cfg and returns its
// result (runtime, bus occupancy, traffic).
func RunBenchmark(name string, cfg Config) (apps.Result, error) {
	a, err := apps.ByName(name)
	if err != nil {
		return apps.Result{}, err
	}
	return a.Run(cfg), nil
}

// Result is one macrobenchmark outcome.
type Result = apps.Result

// Table is a rendered experiment: paper-style rows with a String()
// method.
type Table = harness.Table

// ExperimentDef is one registered experiment: a stable Name, a
// human-readable Title, classification Tags, and a Run function
// returning the rendered Table plus machine-readable Data.
type ExperimentDef = harness.Experiment

// RunOptions parameterises one registry experiment run (currently:
// narrowing the macrobenchmark sweeps to an app subset).
type RunOptions = harness.RunOpts

// Data is an experiment's machine-readable result, uniformly
// exportable as JSON or CSV across every registered experiment.
type Data = harness.Data

// Experiments returns the typed experiment registry in presentation
// order. ExperimentNames, ExperimentData, and the CLI's `list` are
// all derived from it, so a new experiment registers exactly once.
func Experiments() []ExperimentDef { return harness.Registry() }

// ExperimentNames lists the registered experiment names in registry
// order.
func ExperimentNames() []string {
	reg := harness.Registry()
	names := make([]string, len(reg))
	for i, e := range reg {
		names[i] = e.Name
	}
	return names
}

// LookupExperiment finds a registered experiment by name.
func LookupExperiment(name string) (ExperimentDef, bool) { return harness.ByName(name) }

// ExperimentData runs one registered experiment and returns both the
// rendered table and its machine-readable Data.
func ExperimentData(name string, opt RunOptions) (*Table, *Data, error) {
	e, ok := harness.ByName(name)
	if !ok {
		return nil, nil, fmt.Errorf("cni: unknown experiment %q (want one of %v)", name, ExperimentNames())
	}
	t, d := e.Run(opt)
	return t, d, nil
}
