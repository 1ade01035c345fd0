package main

import (
	"fmt"

	cni "repro"
	"repro/internal/harness"
	"repro/internal/params"
)

// loadsweepCmd drives the workload/telemetry subsystem: by default a
// full offered-load sweep to saturation per NI × topology; with
// --load, one measured point at a fixed per-node offered load.
func loadsweepCmd(_ string, o *opts) func(string) error {
	c := newSweepCmd(o)
	arrival := o.oneOf("arrival", "poisson", params.ArrivalNames, "arrival process")
	zipf := o.floatIn("zipf", 0, upTo(params.MaxZipfS),
		"destination Zipf skew (0 = uniform; unset keeps the hotspot skew)")
	load := o.floatIn("load", 0, above(0),
		"measure one point at this per-node offered MB/s instead of sweeping")
	seed := o.Uint64("seed", 0, "workload seed (0 = default)")
	nodes, shards := c.pinned("load", "--load point")
	o.require(func() bool { return !c.set("load") || *c.json == "" && *c.csv == "" },
		"--json/--csv export the full sweep; they do not apply to a single --load point")
	o.require(func() bool { return !c.set("load") || *arrival != cni.ArrivalClosed.String() },
		"--load sets an open-loop offered rate; the closed loop self-limits (run the closed-loop sweep without --load instead)")
	return func(string) error {
		ak, _ := cni.ParseArrival(*arrival) // checked against params.ArrivalNames
		opt := cni.SweepOptions{Arrival: ak, Seed: *seed, NIs: c.nis(), Topos: c.topos(), Progress: c.note}
		if c.set("zipf") {
			opt.ZipfS = zipf
		}
		if c.set("load") {
			return runLoadPoint(c.point(*nodes, *shards), opt, *load)
		}
		return runSweep(c, cni.LoadSweep, opt)
	}
}

// runLoadPoint measures one offered-load point on cfg's machine with
// full percentile output, using the sweep's measurement windows. cfg
// may scale past the sweep's 16 nodes (shards > 0 selects the sharded
// conservative-lookahead engine on torus machines over 16 nodes;
// results are shard-count invariant).
func runLoadPoint(cfg cni.Config, opt cni.SweepOptions, perNodeMBps float64) error {
	wl := harness.SweepWorkload(opt, perNodeMBps, 0)
	cfg.Workload = wl
	if err := cfg.Validate(); err != nil {
		return err
	}
	rep := cni.MeasureLoad(cfg, harness.SweepWarm, harness.SweepMeasure)
	us := func(q float64) float64 { return cni.Microseconds(rep.Latency.Quantile(q)) }
	fmt.Printf("%s %v arrivals, Zipf(s=%.2f), %d nodes\n", cfg.Name(), wl.Arrival, wl.ZipfS, cfg.Nodes)
	fmt.Printf("offered %.1f MB/s  goodput %.1f MB/s  sent %d  delivered %d\n",
		rep.OfferedMBps, rep.GoodputMBps, rep.Sent, rep.Delivered)
	fmt.Printf("latency (us): p50 %.1f  p90 %.1f  p99 %.1f  p99.9 %.1f  max %.1f  (n=%d)\n",
		us(0.50), us(0.90), us(0.99), us(0.999),
		cni.Microseconds(rep.Latency.Max()), rep.Latency.Count())
	return nil
}
