package main

import (
	"flag"

	cni "repro"
	"repro/internal/harness"
)

// sweepCmd is the part of the four sweep commands (loadsweep,
// faultsweep, rpc, collective) that does not depend on what they
// measure: the --ni/--topology grid, the --json/--csv exporters, the
// progress meter, and the machine of the single-point modes. Each
// command adds its own flags to the embedded FlagSet.
type sweepCmd struct {
	*flag.FlagSet
	ni, topology    *string
	jsonOut, csvOut *string
	// nis and topos are the resolved grid; an empty axis keeps the
	// sweep's default.
	nis   []cni.NIKind
	topos []cni.Topology
	// pm is the --progress meter while a sweep runs (nil when off).
	pm *progressMeter
}

// newSweepCmd returns the named command with the shared flags installed.
func newSweepCmd(name string) *sweepCmd {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	c := &sweepCmd{
		FlagSet:  fs,
		ni:       fs.String("ni", "", "restrict to one NI design (default: the sweep's NI set; a single point runs CNI512Q)"),
		topology: fs.String("topology", "", "restrict to one fabric (default: flat and torus; a single point runs flat)"),
	}
	c.jsonOut, c.csvOut = exportFlags(fs)
	return c
}

// parse parses args, then rejects exporter conflicts and resolves
// --ni/--topology (failing with the valid values) before any
// simulation starts.
func (c *sweepCmd) parse(args []string) error {
	if err := c.Parse(args); err != nil {
		return err
	}
	if err := validateExport(*c.jsonOut, *c.csvOut); err != nil {
		return err
	}
	if *c.ni != "" {
		kind, err := cni.ParseNI(*c.ni)
		if err != nil {
			return err
		}
		c.nis = []cni.NIKind{kind}
	}
	if *c.topology != "" {
		topo, err := cni.ParseTopology(*c.topology)
		if err != nil {
			return err
		}
		c.topos = []cni.Topology{topo}
	}
	return nil
}

// set reports whether the user passed the named flag explicitly (as
// opposed to its default applying).
func (c *sweepCmd) set(name string) bool {
	set := false
	c.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// point is the machine of a single-point mode (loadsweep --load, rpc
// --fanout, collective --schedule): the selected NI and fabric, by
// default CNI512Q on the flat fabric, on the memory bus with nodes
// nodes (0 = the sweep's 16) and the given shard count.
func (c *sweepCmd) point(nodes, shards int) cni.Config {
	cfg := cni.Config{Nodes: harness.SweepNodes, NI: cni.CNI512Q, Bus: cni.MemoryBus, Topology: cni.TopoFlat, Shards: shards}
	if nodes != 0 {
		cfg.Nodes = nodes
	}
	if len(c.nis) == 1 {
		cfg.NI = c.nis[0]
	}
	if len(c.topos) == 1 {
		cfg.Topology = c.topos[0]
	}
	return cfg
}

// note is every sweep's Progress callback: it feeds the meter.
func (c *sweepCmd) note(cell, detail string) { c.pm.note(cell, detail) }

// runSweep runs one grid sweep (whose options route Progress to
// c.note) under the --progress meter, then prints its table and writes
// its Data per --json/--csv.
func runSweep[O, R any](c *sweepCmd, sweep func(O) (*cni.Table, *cni.Data, []R), opt O) error {
	c.pm = startProgress(c.Name())
	t, d, _ := sweep(opt)
	c.pm.finish()
	printTable(t, *c.jsonOut, *c.csvOut)
	return c.export(d)
}

// export writes a result per --json/--csv.
func (c *sweepCmd) export(d *cni.Data) error { return export(d, *c.jsonOut, *c.csvOut) }

// quiet reports whether an exporter holds stdout, which must then carry
// nothing but the export.
func (c *sweepCmd) quiet() bool { return *c.jsonOut == "-" || *c.csvOut == "-" }
