package cni

import (
	"repro/internal/dcn"
	"repro/internal/harness"
)

// Datacenter scenario pack (internal/dcn): multi-hop RPC fan-out with
// straggler-aware joins and hedged requests, collective schedules, and
// aggregated million-client populations, re-exported in the same shape
// as the paper experiments and the load/fault sweeps.

// RPCTier describes one hop of a fan-out call: fan-out degree, mean
// exponential service time, and payload sizes.
type RPCTier = dcn.Tier

// RPCSpec configures one RPC fan-out measurement: client population,
// think time, tier shape, hedging, and the per-front-end in-flight cap.
type RPCSpec = dcn.RPCSpec

// RPCReport is one measured RPC run: offered vs goodput KRPS, call
// counters, and the latency and straggler histograms.
type RPCReport = dcn.RPCReport

// DefaultRPCSpec is a million-client fan-out at moderate load.
func DefaultRPCSpec() RPCSpec { return dcn.DefaultRPCSpec() }

// IncastSpec is the storage-read preset built on the fan-in
// primitive: tiny requests, bulk chunk replies converging on the
// caller at once.
func IncastSpec(fanout, chunkBytes int) RPCSpec { return dcn.IncastSpec(fanout, chunkBytes) }

// RunRPC executes spec's RPC workload on cfg's machine for
// warm + measure cycles and reports SLO telemetry from the
// measurement window.
func RunRPC(cfg Config, spec RPCSpec, warm, measure Cycles) (RPCReport, error) {
	return dcn.RunRPC(cfg, spec, warm, measure)
}

// Schedule names a collective algorithm.
type Schedule = dcn.Schedule

// The collective schedules.
const (
	RingAllreduce = dcn.RingAllreduce
	RDAllreduce   = dcn.RDAllreduce
	Alltoall      = dcn.Alltoall
	Broadcast     = dcn.Broadcast
)

// Schedules lists every collective schedule.
func Schedules() []Schedule { return dcn.Schedules() }

// ParseSchedule resolves a CLI schedule name; unknown names error
// with the valid list.
func ParseSchedule(s string) (Schedule, error) { return dcn.ParseSchedule(s) }

// CollectiveSpec configures one collective run.
type CollectiveSpec = dcn.CollectiveSpec

// CollectiveReport is one collective run's completion time, per-step
// skew, and traffic volume.
type CollectiveReport = dcn.CollectiveReport

// CollectiveStep is one schedule step's completion spread.
type CollectiveStep = dcn.StepStat

// DefaultCollectiveSpec is a 64KiB-per-node ring allreduce.
func DefaultCollectiveSpec() CollectiveSpec { return dcn.DefaultCollectiveSpec() }

// RunCollective executes one collective schedule on cfg's machine.
func RunCollective(cfg Config, spec CollectiveSpec) (CollectiveReport, error) {
	return dcn.RunCollective(cfg, spec)
}

// RPCOptions selects what RPCSweep measures.
type RPCOptions = harness.RPCOptions

// RPCRow is one NI × topology cell of the RPC sweep: the fan-out
// ladder plus one deep-overload point.
type RPCRow = harness.RPCRow

// RPCPoint is one measured RPC load point.
type RPCPoint = harness.RPCPoint

// RPCSweep* pin the sweep's measurement windows and default
// population; cnisim rpc's single-point mode uses the same values so a
// one-off run measures exactly what a sweep cell does.
const (
	RPCSweepWarm    = harness.RPCSweepWarm
	RPCSweepMeasure = harness.RPCSweepMeasure
	RPCSweepClients = harness.RPCSweepClients
	RPCSweepThink   = harness.RPCSweepThink
)

// RPCSweepFanouts is the fan-out ladder every sweep cell climbs.
var RPCSweepFanouts = harness.RPCSweepFanouts

// RPCSpecFor builds the spec for one sweep point: opt's overrides on
// the default spec at the given fan-out and think time.
func RPCSpecFor(opt RPCOptions, fanout, think int) RPCSpec {
	return harness.RPCSpecFor(opt, fanout, think)
}

// RPCSweep measures RPC fan-out tail latency for every requested
// NI × topology: the fan-out ladder at moderate offered load plus one
// deep-overload point.
func RPCSweep(opt RPCOptions) (*Table, *Data, []RPCRow) { return harness.RPCSweep(opt) }

// CollectiveOptions selects what CollectiveSweep measures.
type CollectiveOptions = harness.CollectiveOptions

// CollectiveRow is one NI × topology cell: every schedule's
// completion time and straggler skew.
type CollectiveRow = harness.CollectiveRow

// CollectiveCell is one schedule's result within a row.
type CollectiveCell = harness.CollectiveCell

// CollectiveBytes is the sweep's default per-node contribution.
const CollectiveBytes = harness.CollectiveBytes

// CollectiveSweep measures every collective schedule for every
// requested NI × topology.
func CollectiveSweep(opt CollectiveOptions) (*Table, *Data, []CollectiveRow) {
	return harness.CollectiveSweep(opt)
}
