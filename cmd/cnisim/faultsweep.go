package main

import cni "repro"

// faultsweepCmd drives the fault-injection subsystem: by default the
// full drop-rate ladder per NI × topology with the reliable transport
// engaged; --drop narrows the ladder to one rate, --degrade opens a
// mid-run degraded-link window, --seed reseeds the fault RNG (the
// workload keeps its own stream, so traffic is identical across
// seeds).
func faultsweepCmd(_ string, o *opts) func(string) error {
	c := newSweepCmd(o)
	drop := o.floatIn("drop", 0, below(1),
		"inject only this per-message drop rate (default: the full ladder 0..1e-2)")
	degrade := o.floatIn("degrade", 1, atLeast(1), "degrade links mid-run: latency xK, bandwidth /K (1 = no window)")
	seed := o.Uint64("seed", 0, "fault-injection seed (0 = default; traffic is seed-independent)")
	return func(string) error {
		opt := cni.FaultOptions{Seed: *seed, DegradeX: *degrade, NIs: c.nis(), Topos: c.topos(), Progress: c.note}
		if c.set("drop") {
			opt.Drops = []float64{*drop}
		}
		return runSweep(c, cni.FaultSweep, opt)
	}
}
