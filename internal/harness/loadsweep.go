package harness

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/params"
	"repro/internal/workload"
)

// Load-sweep tuning. The ladder is geometric so one sweep spans the
// two decades between a polled NI's comfortable load and its
// collapse; rungs are identical across NIs and fabrics so rows are
// comparable.
const (
	// SweepNodes/SweepWarm/SweepMeasure are exported so a cnisim
	// --load point measures exactly the machine and windows a sweep
	// rung does.
	SweepNodes    = 16
	SweepWarm     = 20_000 // cycles before the measurement window
	SweepMeasure  = 80_000 // measurement window length
	sweepBaseMBps = 4.0    // per-node offered load on the first rung
	sweepGrowth   = 1.3
	sweepMaxRungs = 12
	// sweepKneeEff defines saturation: the knee is the last rung
	// whose goodput still tracked offered load to within this factor.
	sweepKneeEff = 0.85
	// closedMaxClients caps the closed-loop ladder (clients per node).
	closedMaxClients = 64
	// closedKneeGain: the closed-loop knee is the last doubling that
	// still grew goodput by this factor.
	closedKneeGain = 1.05
)

// LoadsweepBench* pin the "heaviest path" benchmark load point that
// BenchmarkTorusLoadsweep and the benchjson
// torus_loadsweep_events_per_sec canary share: the default sweep's
// machine at the CNI512Q torus saturation knee (the 7th ladder rung).
const (
	LoadsweepBenchNodes       = SweepNodes
	LoadsweepBenchWarm        = SweepWarm
	LoadsweepBenchMeasure     = SweepMeasure
	LoadsweepBenchPerNodeMBps = sweepBaseMBps * sweepGrowth * sweepGrowth *
		sweepGrowth * sweepGrowth * sweepGrowth * sweepGrowth
)

// sweepFracs are the fractions of the saturation offered load at
// which tail latency is reported.
var sweepFracs = [3]float64{0.3, 0.6, 0.9}

// SweepPoint is one measured load point.
type SweepPoint struct {
	// OfferedMBps is the aggregate offered load; for the closed loop
	// it is the measured (self-limited) goodput.
	OfferedMBps float64 `json:"offered_mbps"`
	// GoodputMBps is the aggregate delivered user payload.
	GoodputMBps float64 `json:"goodput_mbps"`
	// Clients is the per-node client count (closed loop only).
	Clients int `json:"clients,omitempty"`
	// Latency percentiles in microseconds (see Report.Latency for
	// the semantics per arrival kind).
	P50Us  float64 `json:"p50_us"`
	P90Us  float64 `json:"p90_us"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p999_us"`
	// Sent/Delivered count user messages over the whole run.
	Sent      uint64 `json:"sent"`
	Delivered uint64 `json:"delivered"`
}

// SweepRow is one NI × topology sweep: the ladder to saturation plus
// tail-latency measurements at fractions of the saturation load.
type SweepRow struct {
	NI       string `json:"ni"`
	Topology string `json:"topology"`
	// SaturationMBps is the best goodput observed on the ladder.
	SaturationMBps float64 `json:"saturation_mbps"`
	// KneeOfferedMBps is the saturation offered load: the last rung
	// whose goodput tracked offered load (sweepKneeEff); AtFrac is
	// measured at sweepFracs of it.
	KneeOfferedMBps float64 `json:"knee_offered_mbps"`
	// KneeTracked is false when even the ladder's first rung failed
	// the tracking test, i.e. KneeOfferedMBps fell back to the base
	// rung and was never actually sustained.
	KneeTracked bool          `json:"knee_tracked"`
	Ladder      []SweepPoint  `json:"ladder"`
	AtFrac      [3]SweepPoint `json:"at_frac"`
}

// SweepOptions selects what to sweep. Empty NIs/Topos mean the five
// paper NIs plus DMA over both fabrics; a zero Seed keeps the
// default workload's.
type SweepOptions struct {
	Arrival params.ArrivalKind
	// ZipfS, when non-nil, overrides the destination skew (0 =
	// uniform); nil keeps params.DefaultWorkload's hotspot skew, so
	// the zero-value SweepOptions sweeps the default workload.
	ZipfS *float64
	Seed  uint64
	NIs   []params.NIKind
	Topos []params.Topology
	// Progress, when non-nil, is called once per measured load point
	// with the cell's "NI/topology" label and the point's offered load
	// (the self-limited goodput for closed-loop rungs). Cells fan out
	// over worker goroutines, so the callback must be goroutine-safe.
	Progress func(cell, detail string)
}

// SweepWorkload builds the workload spec for one load point: the
// options' arrival/skew/seed overrides on top of the default
// workload, at the given per-node offered load (open loop) or client
// population (closed loop). cnisim --load uses it too, so a one-off
// point measures exactly the workload a sweep rung would.
func SweepWorkload(opt SweepOptions, perNodeMBps float64, clients int) *params.Workload {
	wl := params.DefaultWorkload()
	wl.Arrival = opt.Arrival
	if opt.ZipfS != nil {
		wl.ZipfS = *opt.ZipfS
	}
	if opt.Seed != 0 {
		wl.Seed = opt.Seed
	}
	wl.OfferedMBps = perNodeMBps
	wl.Clients = clients
	return &wl
}

// measure runs one load point and condenses the report.
func measure(cfg params.Config) SweepPoint {
	rep := workload.Run(cfg, SweepWarm, SweepMeasure)
	q := func(p float64) float64 {
		return machine.Microseconds(rep.Latency.Quantile(p))
	}
	return SweepPoint{
		OfferedMBps: rep.OfferedMBps,
		GoodputMBps: rep.GoodputMBps,
		Clients:     cfg.Workload.Clients, // SweepWorkload zeroes it in the open loop
		P50Us:       q(0.50),
		P90Us:       q(0.90),
		P99Us:       q(0.99),
		P999Us:      q(0.999),
		Sent:        rep.Sent,
		Delivered:   rep.Delivered,
	}
}

// sweepOne climbs the ladder for one NI × topology until goodput
// stops tracking offered load, then measures tail latency at
// sweepFracs of the knee.
func sweepOne(opt SweepOptions, base params.Config, note func(string)) SweepRow {
	row := SweepRow{NI: base.NI.String(), Topology: base.Topology.String()}
	point := func(perNodeMBps float64, clients int) SweepPoint {
		cfg := base
		cfg.Workload = SweepWorkload(opt, perNodeMBps, clients)
		pt := measure(cfg)
		mbps := pt.OfferedMBps
		if clients > 0 {
			mbps = pt.GoodputMBps // the closed loop offers what it gets
		}
		note(fmt.Sprintf("@ %.1f MB/s offered", mbps))
		return pt
	}
	if opt.Arrival == params.ArrivalClosed {
		// Closed loop: double the per-node client count until goodput
		// stops growing; offered load self-limits, so the knee is the
		// smallest population that reaches the plateau.
		prev := 0.0
		kneeClients := 1
		for c := 1; c <= closedMaxClients; c *= 2 {
			pt := point(0, c)
			row.Ladder = append(row.Ladder, pt)
			row.SaturationMBps = max(row.SaturationMBps, pt.GoodputMBps)
			if c > 1 && pt.GoodputMBps < prev*closedKneeGain {
				break
			}
			prev = pt.GoodputMBps
			kneeClients = c
		}
		row.KneeOfferedMBps = row.SaturationMBps
		row.KneeTracked = true
		for i, f := range sweepFracs {
			row.AtFrac[i] = point(0, max(1, int(f*float64(kneeClients)+0.5)))
		}
		return row
	}
	perNode := sweepBaseMBps
	knee := sweepBaseMBps
	for rung := 0; rung < sweepMaxRungs; rung++ {
		pt := point(perNode, 0)
		row.Ladder = append(row.Ladder, pt)
		row.SaturationMBps = max(row.SaturationMBps, pt.GoodputMBps)
		if pt.GoodputMBps < sweepKneeEff*pt.OfferedMBps {
			break
		}
		row.KneeTracked = true
		knee = perNode
		perNode *= sweepGrowth
	}
	row.KneeOfferedMBps = knee * SweepNodes
	for i, f := range sweepFracs {
		row.AtFrac[i] = point(f*knee, 0)
	}
	return row
}

// sweepCols declares the load sweep's columns: saturation and knee,
// then p50/p99/p99.9 at each sweepFracs load.
func sweepCols() []col[SweepRow] {
	cols := []col[SweepRow]{
		{"sat MB/s", "saturation_mbps", func(r SweepRow) string { return f1(r.SaturationMBps) }},
		{"knee MB/s", "knee_offered_mbps", func(r SweepRow) string { return f1(r.KneeOfferedMBps) }},
	}
	for i, f := range sweepFracs {
		pct := fmt.Sprintf("%.0f", 100*f)
		unit := ""
		if i == 0 {
			unit = " (us)"
		}
		cols = append(cols,
			col[SweepRow]{"p50@" + pct + unit, "p50_us_" + pct, func(r SweepRow) string { return f1(r.AtFrac[i].P50Us) }},
			col[SweepRow]{"p99@" + pct, "p99_us_" + pct, func(r SweepRow) string { return f1(r.AtFrac[i].P99Us) }},
			col[SweepRow]{"p99.9@" + pct, "p999_us_" + pct, func(r SweepRow) string { return f1(r.AtFrac[i].P999Us) }})
	}
	return cols
}

// LoadSweep runs the load sweep for every requested NI × topology and
// returns the table, its machine-readable Data (the snake_case summary
// grid plus the full per-NI ladders under Extra), and the rows.
func LoadSweep(opt SweepOptions) (*Table, *Data, []SweepRow) {
	wl := SweepWorkload(opt, 0, 0)
	note := fmt.Sprintf("Offered load climbs a geometric ladder until goodput stops tracking it\n"+
		"(< %.0f%% delivered); sat is the best goodput, knee the saturation offered\n"+
		"load, and latency percentiles (end-to-end, coordinated-omission-free) are\n"+
		"measured at %.0f/%.0f/%.0f%% of the knee. Histogram quantile error <= 6.25%%.",
		100*sweepKneeEff, 100*sweepFracs[0], 100*sweepFracs[1], 100*sweepFracs[2])
	if opt.Arrival == params.ArrivalClosed {
		note = fmt.Sprintf("The per-node client population doubles until goodput stops growing (< %.0f%%\n"+
			"gain per doubling); sat = knee is the plateau goodput, and request/reply\n"+
			"latency percentiles are measured at %.0f/%.0f/%.0f%% of the knee's client\n"+
			"count. Histogram quantile error <= 6.25%%.",
			100*(closedKneeGain-1), 100*sweepFracs[0], 100*sweepFracs[1], 100*sweepFracs[2])
	}
	return gridSweep[SweepRow]{
		name: "loadsweep",
		title: fmt.Sprintf("Load sweep: %v arrivals, Zipf(s=%.2f) destinations (%d nodes, memory bus)",
			wl.Arrival, wl.ZipfS, SweepNodes),
		note: note,
		nis:  opt.NIs, defaultNIs: paperNIsAndDMA, topos: opt.Topos, progress: opt.Progress,
		measure: func(cfg params.Config, note func(string)) SweepRow { return sweepOne(opt, cfg, note) },
		cols:    sweepCols(),
	}.run()
}
