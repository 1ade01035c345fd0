package harness

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/params"
	"repro/internal/workload"
)

// Fault-sweep tuning. Every NI runs the same drop-rate ladder at the
// same fixed offered load, so rows isolate how each design's recovery
// behaves — not how close to saturation it started.
const (
	// FaultWarm/FaultMeasure bound one fault point's run. The window
	// is longer than a load-sweep rung so the rare-drop rungs see
	// enough frames for the ladder to resolve.
	FaultWarm    = SweepWarm
	FaultMeasure = 200_000
	// FaultPerNodeMBps is the fixed per-node offered load — twice the
	// load sweep's base rung, still comfortably under every NI's knee,
	// so goodput loss on a rung is attributable to the faults.
	FaultPerNodeMBps = 8.0
	// faultKneeEff defines the graceful-degradation knee: the largest
	// drop rate whose goodput still reaches this fraction of the
	// zero-drop rung's.
	faultKneeEff = 0.90
)

// FaultLadder is the default drop-rate ladder.
var FaultLadder = []float64{0, 1e-5, 1e-4, 1e-3, 1e-2}

// FaultPoint is one measured (NI, topology, drop-rate) cell.
type FaultPoint struct {
	DropRate    float64 `json:"drop_rate"`
	OfferedMBps float64 `json:"offered_mbps"`
	GoodputMBps float64 `json:"goodput_mbps"`
	// Latency percentiles in microseconds (end-to-end, coordinated-
	// omission-free; retransmit delays land in the tail).
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p999_us"`
	// Sent/Delivered count user messages over the whole run; Delivered
	// plus transport-declared-dead frames accounts for every loss.
	Sent      uint64 `json:"sent"`
	Delivered uint64 `json:"delivered"`
	// Fault and recovery telemetry (network frames, whole run).
	Drops         uint64 `json:"drops"`
	Retransmits   uint64 `json:"retransmits"`
	DupSuppressed uint64 `json:"dup_suppressed"`
	Dead          uint64 `json:"dead"`
}

// FaultRow is one NI × topology ladder.
type FaultRow struct {
	NI       string `json:"ni"`
	Topology string `json:"topology"`
	// KneeDropRate is the largest ladder rate whose goodput held
	// faultKneeEff of the zero-drop rung's — the graceful-degradation
	// knee.
	KneeDropRate float64      `json:"knee_drop_rate"`
	Ladder       []FaultPoint `json:"ladder"`
}

// FaultOptions selects what to sweep. Zero-value fields take the
// defaults: the full ladder, no degrade window, fault seed 1, the
// five paper NIs plus DMA over both fabrics.
type FaultOptions struct {
	// Seed drives the fault RNG only; the workload keeps its own
	// default seed, so every rung offers identical traffic.
	Seed uint64
	// Drops overrides the drop-rate ladder.
	Drops []float64
	// DegradeX > 1 opens a mid-measurement degraded-link window
	// (latency ×DegradeX, bandwidth ÷DegradeX) over the middle half of
	// the measurement window on every rung.
	DegradeX float64
	NIs      []params.NIKind
	Topos    []params.Topology
	// Progress, when non-nil, is called once per measured rung with
	// the cell's "NI/topology" label and the rung's injected drop
	// rate. Cells fan out over worker goroutines, so the callback must
	// be goroutine-safe.
	Progress func(cell, detail string)
}

// FaultConfig builds the machine configuration for one fault point —
// cnisim's parameterised path uses it too, so a one-off point
// measures exactly what a sweep cell does.
func FaultConfig(opt FaultOptions, ni params.NIKind, topo params.Topology, drop float64) params.Config {
	f := params.Faults{Seed: opt.Seed, DropProb: drop, Transport: true}
	if opt.DegradeX > 1 {
		f.DegradeFrom = FaultWarm + FaultMeasure/4
		f.DegradeUntil = FaultWarm + 3*FaultMeasure/4
		f.DegradeLatencyX = opt.DegradeX
		f.DegradeBandwidthX = opt.DegradeX
	}
	return params.Config{
		Nodes: SweepNodes, NI: ni, Bus: params.MemoryBus, Topology: topo,
		Workload: SweepWorkload(SweepOptions{}, FaultPerNodeMBps, 0),
		Faults:   f,
	}
}

// measureFault runs one fault point and condenses the report.
func measureFault(cfg params.Config, drop float64) FaultPoint {
	rep := workload.Run(cfg, FaultWarm, FaultMeasure)
	q := func(p float64) float64 {
		return machine.Microseconds(rep.Latency.Quantile(p))
	}
	return FaultPoint{
		DropRate:      drop,
		OfferedMBps:   rep.OfferedMBps,
		GoodputMBps:   rep.GoodputMBps,
		P50Us:         q(0.50),
		P99Us:         q(0.99),
		P999Us:        q(0.999),
		Sent:          rep.Sent,
		Delivered:     rep.Delivered,
		Drops:         rep.Drops,
		Retransmits:   rep.Retransmits,
		DupSuppressed: rep.DupSuppressed,
		Dead:          rep.Dead,
	}
}

// faultSweepOne climbs the drop ladder for one NI × topology.
func faultSweepOne(opt FaultOptions, ladder []float64, cfg params.Config, note func(string)) FaultRow {
	row := FaultRow{NI: cfg.NI.String(), Topology: cfg.Topology.String(), KneeDropRate: ladder[0]}
	for _, drop := range ladder {
		row.Ladder = append(row.Ladder, measureFault(FaultConfig(opt, cfg.NI, cfg.Topology, drop), drop))
		note(fmt.Sprintf("@ drop %g", drop))
	}
	base := row.Ladder[0].GoodputMBps
	for _, pt := range row.Ladder {
		if pt.GoodputMBps >= faultKneeEff*base {
			row.KneeDropRate = pt.DropRate
		}
	}
	return row
}

// FaultSweep runs the drop-rate ladder for every requested NI ×
// topology with the reliable transport engaged on every rung
// (including drop 0, so the ladder isolates fault impact from the
// transport's own overhead). The Data carries per-rung goodput and
// p99.9 columns plus the full ladders under Extra.
func FaultSweep(opt FaultOptions) (*Table, *Data, []FaultRow) {
	ladder := opt.Drops
	if len(ladder) == 0 {
		ladder = FaultLadder
	}
	title := fmt.Sprintf("Fault sweep: goodput and tail latency vs drop rate (%d nodes, %.0f MB/s per node, memory bus)",
		SweepNodes, FaultPerNodeMBps)
	if opt.DegradeX > 1 {
		title += fmt.Sprintf(", mid-run links degraded x%g", opt.DegradeX)
	}
	cols := []col[FaultRow]{
		{"knee", "knee_drop_rate", func(r FaultRow) string { return fmt.Sprintf("%g", r.KneeDropRate) }},
	}
	for i, drop := range ladder {
		cols = append(cols,
			col[FaultRow]{fmt.Sprintf("gput@%g", drop), fmt.Sprintf("goodput_mbps@%g", drop),
				func(r FaultRow) string { return f1(r.Ladder[i].GoodputMBps) }},
			col[FaultRow]{fmt.Sprintf("p99.9@%g", drop), fmt.Sprintf("p999_us@%g", drop),
				func(r FaultRow) string { return f1(r.Ladder[i].P999Us) }})
	}
	return gridSweep[FaultRow]{
		name:  "faultsweep",
		title: title,
		note: fmt.Sprintf("Every rung injects seeded per-message drops at the fabric edge; the\n"+
			"reliable transport (seq+ack, timeout retransmit, %dx backoff, budget %d)\n"+
			"recovers them, so goodput loss and tail growth measure recovery cost.\n"+
			"The knee is the largest rate holding %.0f%% of the zero-drop goodput.\n"+
			"Fault seed %d; identical seeds reproduce byte-identical sweeps.",
			msg.RelRetxBackoff, msg.RelRetxBudget, 100*faultKneeEff, opt.Seed),
		nis: opt.NIs, defaultNIs: paperNIsAndDMA, topos: opt.Topos, progress: opt.Progress,
		measure: func(cfg params.Config, note func(string)) FaultRow {
			return faultSweepOne(opt, ladder, cfg, note)
		},
		cols: cols,
	}.run()
}
