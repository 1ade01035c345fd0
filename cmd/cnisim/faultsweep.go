package main

import (
	"fmt"

	cni "repro"
)

// runFaultSweep drives the fault-injection subsystem: by default the
// full drop-rate ladder per NI × topology with the reliable transport
// engaged; --drop narrows the ladder to one rate, --degrade opens a
// mid-run degraded-link window, --seed reseeds the fault RNG (the
// workload keeps its own stream, so traffic is identical across
// seeds).
func runFaultSweep(args []string) error {
	c := newSweepCmd("faultsweep")
	drop := c.Float64("drop", 0, "inject this per-message drop rate in [0, 1) only (default: the full ladder 0..1e-2)")
	degrade := c.Float64("degrade", 1, "degrade links mid-run: latency xK, bandwidth /K (1 = no window)")
	seed := c.Uint64("seed", 0, "fault-injection seed (0 = default; traffic is seed-independent)")
	// Flag conflicts and range errors fail before the multi-minute sweep.
	if err := c.parse(args); err != nil {
		return err
	}
	opt := cni.FaultOptions{Seed: *seed, DegradeX: *degrade, NIs: c.nis, Topos: c.topos, Progress: c.note}
	if c.set("drop") {
		if !(*drop >= 0 && *drop < 1) {
			return fmt.Errorf("--drop=%g is not a drop rate; valid values are probabilities in [0, 1), e.g. 0, 1e-4, or 0.01 (omit the flag for the full ladder)", *drop)
		}
		opt.Drops = []float64{*drop}
	}
	if !(*degrade >= 1) {
		return fmt.Errorf("--degrade=%g would speed links up; valid values are multipliers >= 1 (1 disables the degrade window)", *degrade)
	}
	return runSweep(c, cni.FaultSweep, opt)
}
