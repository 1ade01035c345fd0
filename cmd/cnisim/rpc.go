package main

import (
	"fmt"

	cni "repro"
	"repro/internal/harness"
)

// runRPC drives the datacenter RPC fan-out subsystem: by default the
// full fan-out-ladder + overload sweep per NI × topology; with
// --fanout, one measured point on one machine.
func runRPC(args []string) error {
	c := newSweepCmd("rpc")
	fanout := c.Int("fanout", 0, "measure one point at this root fan-out (>= 1) instead of sweeping the ladder")
	clients := c.Int("clients", 0, "simulated client population machine-wide (default 1000000)")
	think := c.Int("think", 0, "with --fanout: mean client think cycles (default the sweep's moderate load)")
	clientZipf := c.Float64("client-zipf", 0, "Zipf skew of per-client request weights (0 = uniform)")
	hedge := c.Float64("hedge", 0, "hedge-eligible fraction of root calls, in [0, 1)")
	hedgeAfter := c.Int("hedge-after", 0, "hedge trigger delay in cycles (default 20000)")
	chunk := c.Int("incast-chunk", 0, "with --fanout: the storage incast preset, bulk replies of this many bytes")
	seed := c.Uint64("seed", 0, "arrival/backend/service seed (0 = default)")
	// Flag conflicts and invalid parameters fail before any simulation.
	if err := c.parse(args); err != nil {
		return err
	}
	if c.set("fanout") && *fanout < 1 {
		return fmt.Errorf("rpc: --fanout must be >= 1, have %d", *fanout)
	}
	if *hedge < 0 || *hedge >= 1 {
		return fmt.Errorf("rpc: --hedge must be in [0, 1), have %v", *hedge)
	}
	if *clients < 0 {
		return fmt.Errorf("rpc: --clients must be >= 1, have %d", *clients)
	}
	if *think < 0 || *hedgeAfter < 0 || *chunk < 0 {
		return fmt.Errorf("rpc: --think, --hedge-after, and --incast-chunk must be >= 0 (0 = default), have %d, %d, %d",
			*think, *hedgeAfter, *chunk)
	}
	// The sweep fixes its own think times and reply shapes; these two
	// only shape a single point, so without --fanout they would be
	// silently ignored.
	if *fanout == 0 && (*think > 0 || *chunk > 0) {
		return fmt.Errorf("rpc: --think and --incast-chunk shape a single point; they need --fanout")
	}
	opt := cni.RPCOptions{
		Clients:          *clients,
		ClientZipfS:      *clientZipf,
		Hedge:            *hedge,
		HedgeAfterCycles: *hedgeAfter,
		Seed:             *seed,
		NIs:              c.nis,
		Topos:            c.topos,
		Progress:         c.note,
	}
	// Validate the composed spec up front (client-zipf range, ...): a
	// bad parameter must fail here, not minutes into a sweep.
	probeFanout := cni.RPCSweepFanouts[len(cni.RPCSweepFanouts)-1]
	if *fanout > 0 {
		probeFanout = *fanout
	}
	if err := cni.RPCSpecFor(opt, probeFanout, cni.RPCSweepThink).Validate(); err != nil {
		return err
	}
	if *fanout > 0 {
		return runRPCPoint(c, opt, *fanout, *think, *chunk)
	}
	return runSweep(c, cni.RPCSweep, opt)
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
	cfg := c.point(0, 0)
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
	return c.export(d)
}

// runCollective drives the collective-schedule subsystem: by default
// the full schedule grid per NI × topology; with --schedule, one run
// on one machine with per-step detail.
func runCollective(args []string) error {
	c := newSweepCmd("collective")
	schedule := c.String("schedule", "", "run one schedule (ring-allreduce, rd-allreduce, alltoall, broadcast) instead of sweeping")
	bytes := c.Int("bytes", 0, "per-node contribution in bytes (default 65536)")
	nodes := c.Int("nodes", 0, "node count for a single --schedule run (default the sweep's 16)")
	shards := c.Int("shards", 0, "event-engine shards for a single --schedule run (torus machines over 16 nodes; 0 = serial)")
	if err := c.parse(args); err != nil {
		return err
	}
	if *bytes < 0 {
		return fmt.Errorf("collective: --bytes must be >= 1, have %d", *bytes)
	}
	if *schedule == "" && (*nodes != 0 || *shards != 0) {
		return fmt.Errorf("--nodes/--shards apply to a single --schedule run; the sweep is pinned at %d nodes", harness.SweepNodes)
	}
	if *nodes != 0 && *nodes < 2 {
		return fmt.Errorf("collective: --nodes must be >= 2, have %d", *nodes)
	}
	if *schedule != "" {
		sch, err := cni.ParseSchedule(*schedule)
		if err != nil {
			return err
		}
		cfg := c.point(*nodes, *shards)
		// Recursive doubling only pairs up cleanly on powers of two;
		// reject at flag time so the error points at the flag, not at a
		// machine the simulator already built.
		if n := cfg.Nodes; sch == cni.RDAllreduce && n&(n-1) != 0 {
			return fmt.Errorf("collective: invalid --nodes %d for %s (valid: powers of two >= 2)", n, sch)
		}
		return runCollectiveRun(c, cfg, sch, *bytes)
	}
	return runSweep(c, cni.CollectiveSweep, cni.CollectiveOptions{Bytes: *bytes, NIs: c.nis, Topos: c.topos, Progress: c.note})
}

// runCollectiveRun executes one schedule on cfg's machine (which may
// scale past the sweep's 16 nodes) and reports per-step completion
// spread.
func runCollectiveRun(c *sweepCmd, cfg cni.Config, sch cni.Schedule, bytes int) error {
	if bytes == 0 {
		bytes = cni.CollectiveBytes
	}
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
	return c.export(d)
}
