package main

import (
	"fmt"

	cni "repro"
	"repro/internal/harness"
)

// sweepCmd is the part of the four sweep commands (loadsweep,
// faultsweep, rpc, collective) that does not depend on what they
// measure: the --ni/--topology grid, the --json/--csv exporters, the
// progress meter, and the machine of the single-point modes. Each
// command registers its own options on the embedded opts.
type sweepCmd struct {
	*opts
	outputs
	ni, topology *string
	// pm is the --progress meter while a sweep runs (nil when off).
	pm *progressMeter
}

// newSweepCmd registers the shared sweep options on o.
func newSweepCmd(o *opts) *sweepCmd {
	return &sweepCmd{opts: o, outputs: o.outputs(), ni: o.ni(""), topology: o.topology("")}
}

// nis is the --ni axis: the one given, or nil for the sweep's default.
func (c *sweepCmd) nis() []cni.NIKind {
	if !c.set("ni") {
		return nil
	}
	kind, _ := cni.ParseNI(*c.ni) // checked against params.NINames
	return []cni.NIKind{kind}
}

// topos is the --topology axis: the one given, or nil for the sweep's
// default.
func (c *sweepCmd) topos() []cni.Topology {
	if !c.set("topology") {
		return nil
	}
	topo, _ := cni.ParseTopology(*c.topology) // checked against params.TopologyNames
	return []cni.Topology{topo}
}

// point is the machine of a single-point mode (loadsweep --load, rpc
// --fanout, collective --schedule): the selected NI and fabric, by
// default CNI512Q on the flat fabric, on the memory bus with the given
// node and shard counts.
func (c *sweepCmd) point(nodes, shards int) cni.Config {
	cfg := cni.Config{Nodes: nodes, NI: cni.CNI512Q, Bus: cni.MemoryBus, Topology: cni.TopoFlat, Shards: shards}
	if nis := c.nis(); nis != nil {
		cfg.NI = nis[0]
	}
	if topos := c.topos(); topos != nil {
		cfg.Topology = topos[0]
	}
	return cfg
}

// note is every sweep's Progress callback: it feeds the meter.
func (c *sweepCmd) note(cell, detail string) { c.pm.note(cell, detail) }

// runSweep runs one grid sweep (whose options route Progress to
// c.note) under the --progress meter, then prints its table and writes
// its Data per --json/--csv.
func runSweep[O, R any](c *sweepCmd, sweep func(O) (*cni.Table, *cni.Data, []R), opt O) error {
	c.pm = startProgress(c.Name(), *c.progress)
	t, d, _ := sweep(opt)
	c.pm.finish()
	return c.write(t, d)
}

// pinned registers --nodes and --shards, which scale only the single
// point the mode option selects (named what): a full sweep's cells stay
// at the paper's 16-node machine so rows remain comparable.
func (c *sweepCmd) pinned(mode, what string) (nodes, shards *int) {
	nodes, shards = c.nodes(harness.SweepNodes), c.shards()
	c.require(func() bool { return c.set(mode) || !c.set("nodes") && !c.set("shards") },
		fmt.Sprintf("--nodes/--shards apply to a single %s; the sweep is pinned at %d nodes", what, harness.SweepNodes))
	return nodes, shards
}
