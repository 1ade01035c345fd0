package main

import (
	"fmt"
	"math"

	cni "repro"
	"repro/internal/harness"
	"repro/internal/params"
)

// runLoadSweep drives the workload/telemetry subsystem: by default a
// full offered-load sweep to saturation per NI × topology; with
// --load, one measured point at a fixed per-node offered load.
func runLoadSweep(args []string) error {
	c := newSweepCmd("loadsweep")
	arrival := c.String("arrival", "poisson", "arrival process: poisson, bursty, or closed")
	zipf := c.Float64("zipf", 0, "destination Zipf skew in [0, 10] (0 = uniform; default keeps the hotspot skew)")
	load := c.Float64("load", 0, "measure one point at this per-node offered MB/s (> 0) instead of sweeping")
	seed := c.Uint64("seed", 0, "workload seed (0 = default)")
	nodes := c.Int("nodes", 0, "node count for a --load point (default the sweep's 16)")
	shards := c.Int("shards", 0, "event-engine shards for a --load point (torus machines over 16 nodes; 0 = serial)")
	// Flag conflicts and range errors fail before the multi-minute sweep.
	if err := c.parse(args); err != nil {
		return err
	}
	ak, err := cni.ParseArrival(*arrival)
	if err != nil {
		return err
	}
	opt := cni.SweepOptions{Arrival: ak, Seed: *seed, NIs: c.nis, Topos: c.topos, Progress: c.note}
	if c.set("zipf") {
		if !(*zipf >= 0 && *zipf <= params.MaxZipfS) {
			return fmt.Errorf("--zipf=%g is not a Zipf skew; valid values are in [0, %d] (0 = uniform; omit the flag for the hotspot skew)", *zipf, params.MaxZipfS)
		}
		opt.ZipfS = zipf
	}
	if c.set("load") {
		if !(*load > 0) || math.IsInf(*load, 1) {
			return fmt.Errorf("--load=%g is not an offered load; valid values are finite per-node MB/s > 0 (omit the flag for the full sweep)", *load)
		}
		if *c.jsonOut != "" || *c.csvOut != "" {
			return fmt.Errorf("--json/--csv export the full sweep; they do not apply to a single --load point")
		}
		if ak == cni.ArrivalClosed {
			return fmt.Errorf("--load sets an open-loop offered rate; the closed loop self-limits (run the closed-loop sweep without --load instead)")
		}
		return runLoadPoint(c.point(*nodes, *shards), opt, *load)
	}
	// The sweep's cells are pinned at the paper's 16-node machine so
	// rows stay comparable; scale knobs only shape a --load point.
	if *nodes != 0 || *shards != 0 {
		return fmt.Errorf("--nodes/--shards apply to a single --load point; the sweep is pinned at %d nodes", harness.SweepNodes)
	}
	return runSweep(c, cni.LoadSweep, opt)
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
