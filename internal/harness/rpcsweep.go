package harness

import (
	"fmt"

	"repro/internal/dcn"
	"repro/internal/machine"
	"repro/internal/params"
)

// RPC sweep tuning. The fan-out ladder is the headline dimension —
// tail-at-scale grows with k because every call waits for its slowest
// backend — and one overload point per cell reports goodput when
// offered load far exceeds serving capacity.
const (
	// RPCSweepWarm/RPCSweepMeasure bracket each measured point; cnisim
	// rpc's single-point mode uses the same windows, so a one-off run
	// measures exactly what a sweep cell does. The long window buys
	// a few hundred completed calls per point at the ladder's offered
	// rate — enough for stable tail quantiles.
	RPCSweepWarm    = 50_000
	RPCSweepMeasure = 1_000_000
	// RPCSweepClients is the default simulated client population
	// (machine-wide): a million clients aggregated onto the sweep's 16
	// nodes.
	RPCSweepClients = 1_000_000
	// RPCSweepThink is the moderate-load mean think time; with
	// RPCSweepClients it offers 125 KRPS machine-wide, about half the
	// weakest NI's measured k=8 serving capacity (~260 KRPS on a torus
	// of NI2w nodes), so even the top of the fan-out ladder queues
	// lightly instead of saturating.
	RPCSweepThink = 1_600_000_000
	// rpcOverloadDiv shortens think time for the overload point
	// (offered load x20).
	rpcOverloadDiv = 20
)

// RPCSweepFanouts is the fan-out ladder every cell climbs.
var RPCSweepFanouts = []int{1, 2, 4, 8}

// RPCPoint is one measured RPC load point.
type RPCPoint struct {
	Fanout      int     `json:"fanout"`
	OfferedKRPS float64 `json:"offered_krps"`
	GoodputKRPS float64 `json:"goodput_krps"`
	P50Us       float64 `json:"p50_us"`
	P99Us       float64 `json:"p99_us"`
	P999Us      float64 `json:"p999_us"`
	// StragP99Us is the p99 first-to-last sub-reply join gap.
	StragP99Us float64 `json:"strag_p99_us"`
	Completed  uint64  `json:"completed"`
	Queued     uint64  `json:"queued"`
	Hedges     uint64  `json:"hedges"`
	HedgeWins  uint64  `json:"hedge_wins"`
}

// RPCRow is one NI × topology cell: the fan-out ladder at moderate
// load plus one deep-overload point at the top fan-out.
type RPCRow struct {
	NI       string     `json:"ni"`
	Topology string     `json:"topology"`
	Ladder   []RPCPoint `json:"ladder"`
	Overload RPCPoint   `json:"overload"`
}

// RPCOptions selects what to sweep. Zero values mean the default
// million-client population, no hedging, the taxonomy-corner NIs, and
// both fabrics.
type RPCOptions struct {
	// Clients is the machine-wide population (default RPCSweepClients).
	Clients int
	// ClientZipfS skews per-client request weights.
	ClientZipfS float64
	// Hedge and HedgeAfterCycles configure root-call hedging.
	Hedge            float64
	HedgeAfterCycles int
	Seed             uint64
	NIs              []params.NIKind
	Topos            []params.Topology
	// Progress, when non-nil, is called once per measured point with
	// the cell's "NI/topology" label and the point's fan-out (marked
	// for the overload point). Cells fan out over worker goroutines, so
	// the callback must be goroutine-safe.
	Progress func(cell, detail string)
}

// RPCSpecFor builds the dcn spec for one sweep point: the options'
// overrides on the default spec, at the given fan-out and think time.
// cnisim rpc uses it too, so a one-off point measures exactly what a
// sweep cell would.
func RPCSpecFor(opt RPCOptions, fanout int, think int) dcn.RPCSpec {
	spec := dcn.DefaultRPCSpec()
	spec.Clients = RPCSweepClients
	if opt.Clients > 0 {
		spec.Clients = opt.Clients
	}
	spec.ThinkCycles = think
	spec.ClientZipfS = opt.ClientZipfS
	spec.Hedge = opt.Hedge
	if opt.HedgeAfterCycles > 0 {
		spec.HedgeAfterCycles = opt.HedgeAfterCycles
	}
	if opt.Seed != 0 {
		spec.Seed = opt.Seed
	}
	spec.Tiers[0].Fanout = fanout
	return spec
}

// rpcMeasure runs one point and condenses the report.
func rpcMeasure(cfg params.Config, spec dcn.RPCSpec) RPCPoint {
	rep, err := dcn.RunRPC(cfg, spec, RPCSweepWarm, RPCSweepMeasure)
	if err != nil {
		panic(err) // sweep specs are constructed, not user input
	}
	q := func(p float64) float64 { return machine.Microseconds(rep.Latency.Quantile(p)) }
	return RPCPoint{
		Fanout:      spec.Tiers[0].Fanout,
		OfferedKRPS: rep.OfferedKRPS,
		GoodputKRPS: rep.GoodputKRPS,
		P50Us:       q(0.50),
		P99Us:       q(0.99),
		P999Us:      q(0.999),
		StragP99Us:  machine.Microseconds(rep.Straggler.Quantile(0.99)),
		Completed:   rep.Completed,
		Queued:      rep.Queued,
		Hedges:      rep.Hedges,
		HedgeWins:   rep.HedgeWins,
	}
}

// rpcSweepOne measures one NI × topology cell.
func rpcSweepOne(opt RPCOptions, cfg params.Config, note func(string)) RPCRow {
	row := RPCRow{NI: cfg.NI.String(), Topology: cfg.Topology.String()}
	for _, k := range RPCSweepFanouts {
		row.Ladder = append(row.Ladder, rpcMeasure(cfg, RPCSpecFor(opt, k, RPCSweepThink)))
		note(fmt.Sprintf("@ k=%d", k))
	}
	top := RPCSweepFanouts[len(RPCSweepFanouts)-1]
	row.Overload = rpcMeasure(cfg, RPCSpecFor(opt, top, RPCSweepThink/rpcOverloadDiv))
	note(fmt.Sprintf("overload @ k=%d", top))
	return row
}

// rpcCols declares the RPC sweep's columns: p99.9 per fan-out, the top
// fan-out's median and straggler gap, and the overload point.
func rpcCols() []col[RPCRow] {
	var cols []col[RPCRow]
	for i, k := range RPCSweepFanouts {
		head := fmt.Sprintf("p99.9@k%d", k)
		if i == 0 {
			head += " (us)"
		}
		cols = append(cols, col[RPCRow]{head, fmt.Sprintf("p999_us_k%d", k),
			func(r RPCRow) string { return f1(r.Ladder[i].P999Us) }})
	}
	top := func(r RPCRow) RPCPoint { return r.Ladder[len(r.Ladder)-1] }
	k := RPCSweepFanouts[len(RPCSweepFanouts)-1]
	return append(cols,
		col[RPCRow]{fmt.Sprintf("p50@k%d", k), "p50_us_top", func(r RPCRow) string { return f1(top(r).P50Us) }},
		col[RPCRow]{fmt.Sprintf("strag p99@k%d", k), "strag_p99_us_top", func(r RPCRow) string { return f1(top(r).StragP99Us) }},
		col[RPCRow]{"over offer (krps)", "overload_offered_krps", func(r RPCRow) string { return f1(r.Overload.OfferedKRPS) }},
		col[RPCRow]{"over good (krps)", "overload_goodput_krps", func(r RPCRow) string { return f1(r.Overload.GoodputKRPS) }})
}

// RPCSweep measures RPC fan-out tail latency for every requested NI ×
// topology: the fan-out ladder at moderate offered load, then one
// deep-overload point at the top fan-out. The Data carries the summary
// grid plus the full per-cell ladders under Extra.
func RPCSweep(opt RPCOptions) (*Table, *Data, []RPCRow) {
	spec := RPCSpecFor(opt, RPCSweepFanouts[0], RPCSweepThink)
	return gridSweep[RPCRow]{
		name: "rpc",
		title: fmt.Sprintf("RPC fan-out tail at scale: %d clients, think %d cycles (%d nodes, memory bus)",
			spec.Clients, spec.ThinkCycles, SweepNodes),
		note: fmt.Sprintf("Each root call fans out to k backends (exp service, mean %d cycles) and joins\n"+
			"on the slowest reply; p99.9 vs k is the tail-at-scale cost per NI. strag is the\n"+
			"p99 first-to-last reply gap at k=%d. The overload point offers %dx the ladder's\n"+
			"load against a %d-call in-flight cap per front-end: offered vs goodput KRPS\n"+
			"shows the serving plateau. Latency is coordinated-omission-free (timed from\n"+
			"intended arrival). Histogram quantile error <= 6.25%%.",
			spec.Tiers[0].ServiceCycles, RPCSweepFanouts[len(RPCSweepFanouts)-1],
			rpcOverloadDiv, spec.MaxInflight),
		nis: opt.NIs, defaultNIs: cornerNIs, topos: opt.Topos, progress: opt.Progress,
		measure: func(cfg params.Config, note func(string)) RPCRow { return rpcSweepOne(opt, cfg, note) },
		cols:    rpcCols(),
	}.run()
}
