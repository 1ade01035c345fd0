package main

import (
	"fmt"

	cni "repro"
	"repro/internal/harness"
)

// rpcCmd drives the datacenter RPC fan-out subsystem: by default the
// full fan-out-ladder + overload sweep per NI × topology; with
// --fanout, one measured point on one machine.
func rpcCmd(_ string, o *opts) func(string) error {
	c := newSweepCmd(o)
	byDefault := span{atLeast(0).desc + " (0 = default)", atLeast(0).has}
	fanout := o.intIn("fanout", 0, atLeast(1), "measure one point at this root fan-out instead of sweeping the ladder")
	clients := o.intIn("clients", cni.RPCSweepClients, atLeast(1), "simulated client population machine-wide")
	think := o.intIn("think", 0, byDefault, "with --fanout: mean client think cycles (default the sweep's moderate load)")
	clientZipf := o.Float64("client-zipf", 0, "Zipf skew of per-client request weights (0 = uniform)")
	hedge := o.floatIn("hedge", 0, below(1), "hedge-eligible fraction of root calls")
	hedgeAfter := o.intIn("hedge-after", 0, byDefault, "hedge trigger delay in cycles (default 20000)")
	chunk := o.intIn("incast-chunk", 0, byDefault, "with --fanout: the storage incast preset, bulk replies of this many bytes")
	seed := o.Uint64("seed", 0, "arrival/backend/service seed (0 = default)")
	// The sweep fixes its own think times and reply shapes; these two
	// only shape a single point, so without --fanout they would be
	// silently ignored.
	o.require(func() bool { return c.set("fanout") || *think == 0 && *chunk == 0 },
		"rpc: --think and --incast-chunk shape a single point; they need --fanout")
	return func(string) error {
		opt := cni.RPCOptions{
			Clients:          *clients,
			ClientZipfS:      *clientZipf,
			Hedge:            *hedge,
			HedgeAfterCycles: *hedgeAfter,
			Seed:             *seed,
			NIs:              c.nis(),
			Topos:            c.topos(),
			Progress:         c.note,
		}
		// Validate the composed spec up front (client-zipf range, ...): a
		// bad parameter must fail here, not minutes into a sweep.
		probeFanout := cni.RPCSweepFanouts[len(cni.RPCSweepFanouts)-1]
		if c.set("fanout") {
			probeFanout = *fanout
		}
		if err := cni.RPCSpecFor(opt, probeFanout, cni.RPCSweepThink).Validate(); err != nil {
			return err
		}
		if c.set("fanout") {
			return runRPCPoint(c, opt, *fanout, *think, *chunk)
		}
		return runSweep(c, cni.RPCSweep, opt)
	}
}

// runRPCPoint measures one RPC point on one machine, using the
// sweep's windows so the numbers line up with sweep cells.
func runRPCPoint(c *sweepCmd, opt cni.RPCOptions, fanout, think, chunk int) error {
	if think == 0 {
		think = cni.RPCSweepThink
	}
	spec := cni.RPCSpecFor(opt, fanout, think)
	if chunk > 0 {
		spec.Tiers = cni.IncastSpec(fanout, chunk).Tiers
		spec.Tiers[0].Fanout = fanout
	}
	cfg := c.point(harness.SweepNodes, 0)
	if err := cfg.Validate(); err != nil {
		return err
	}
	rep, err := cni.RunRPC(cfg, spec, cni.RPCSweepWarm, cni.RPCSweepMeasure)
	if err != nil {
		return err
	}
	us := func(q float64) float64 { return cni.Microseconds(rep.Latency.Quantile(q)) }
	if !c.quiet() {
		fmt.Printf("%s rpc fan-out k=%d, %d clients, think %d cycles, %d nodes\n",
			cfg.Name(), fanout, spec.Clients, spec.ThinkCycles, cfg.Nodes)
		fmt.Printf("offered %.1f KRPS  goodput %.1f KRPS  issued %d  completed %d  queued %d\n",
			rep.OfferedKRPS, rep.GoodputKRPS, rep.Issued, rep.Completed, rep.Queued)
		fmt.Printf("latency (us): p50 %.1f  p99 %.1f  p99.9 %.1f  max %.1f  (n=%d)\n",
			us(0.50), us(0.99), us(0.999), cni.Microseconds(rep.Latency.Max()), rep.Latency.Count())
		fmt.Printf("straggler join gap (us): p50 %.1f  p99 %.1f  hedges %d  hedge wins %d\n",
			cni.Microseconds(rep.Straggler.Quantile(0.50)),
			cni.Microseconds(rep.Straggler.Quantile(0.99)), rep.Hedges, rep.HedgeWins)
	}
	d := &cni.Data{
		Name:  "rpc-point",
		Title: fmt.Sprintf("%s rpc fan-out k=%d", cfg.Name(), fanout),
		Header: []string{"ni", "topology", "fanout", "offered_krps", "goodput_krps",
			"p50_us", "p99_us", "p999_us", "strag_p99_us", "completed", "queued", "hedges", "hedge_wins"},
		Rows: [][]string{{
			cfg.NI.String(), cfg.Topology.String(), fmt.Sprintf("%d", fanout),
			fmt.Sprintf("%.1f", rep.OfferedKRPS), fmt.Sprintf("%.1f", rep.GoodputKRPS),
			fmt.Sprintf("%.1f", us(0.50)), fmt.Sprintf("%.1f", us(0.99)), fmt.Sprintf("%.1f", us(0.999)),
			fmt.Sprintf("%.1f", cni.Microseconds(rep.Straggler.Quantile(0.99))),
			fmt.Sprintf("%d", rep.Completed), fmt.Sprintf("%d", rep.Queued),
			fmt.Sprintf("%d", rep.Hedges), fmt.Sprintf("%d", rep.HedgeWins),
		}},
	}
	return c.write(nil, d)
}

// collectiveCmd drives the collective-schedule subsystem: by default
// the full schedule grid per NI × topology; with --schedule, one run
// on one machine with per-step detail.
func collectiveCmd(_ string, o *opts) func(string) error {
	c := newSweepCmd(o)
	var schedules []string
	for _, sch := range cni.Schedules() {
		schedules = append(schedules, string(sch))
	}
	schedule := o.oneOf("schedule", "", schedules, "run one schedule instead of sweeping (rd-allreduce needs a power-of-two --nodes)")
	bytes := o.intIn("bytes", cni.CollectiveBytes, atLeast(1), "per-node contribution in bytes")
	nodes, shards := c.pinned("schedule", "--schedule run")
	return func(string) error {
		if !c.set("schedule") {
			return runSweep(c, cni.CollectiveSweep, cni.CollectiveOptions{Bytes: *bytes, NIs: c.nis(), Topos: c.topos(), Progress: c.note})
		}
		sch := cni.Schedule(*schedule)
		cfg := c.point(*nodes, *shards)
		// Recursive doubling only pairs up cleanly on powers of two;
		// reject at flag time so the error points at the flag, not at a
		// machine the simulator already built.
		if n := cfg.Nodes; sch == cni.RDAllreduce && n&(n-1) != 0 {
			return fmt.Errorf("collective: invalid --nodes %d for %s (valid: powers of two >= 2)", n, sch)
		}
		return runCollectiveRun(c, cfg, sch, *bytes)
	}
}

// runCollectiveRun executes one schedule on cfg's machine (which may
// scale past the sweep's 16 nodes) and reports per-step completion
// spread.
func runCollectiveRun(c *sweepCmd, cfg cni.Config, sch cni.Schedule, bytes int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	rep, err := cni.RunCollective(cfg, cni.CollectiveSpec{Schedule: sch, Bytes: bytes})
	if err != nil {
		return err
	}
	if !c.quiet() {
		fmt.Printf("%s %s, %d B per node, %d nodes\n", cfg.Name(), sch, rep.Bytes, rep.Nodes)
		fmt.Printf("completion %.1f us (%d cycles), %d steps, max per-step skew %d cycles\n",
			rep.CompletionMicros, rep.CompletionCycles, rep.Steps, rep.MaxSkew)
		fmt.Printf("traffic: %d messages, %d bytes moved\n", rep.Msgs, rep.MovedBytes)
	}
	d := &cni.Data{
		Name:   "collective-run",
		Title:  fmt.Sprintf("%s %s per-step completion", cfg.Name(), sch),
		Header: []string{"step", "min_end", "max_end", "skew_cycles"},
		Extra:  rep,
	}
	for _, st := range rep.PerStep {
		d.Rows = append(d.Rows, []string{
			fmt.Sprintf("%d", st.Step), fmt.Sprintf("%d", st.MinEnd),
			fmt.Sprintf("%d", st.MaxEnd), fmt.Sprintf("%d", st.Skew),
		})
	}
	return c.write(nil, d)
}
