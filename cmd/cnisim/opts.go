package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"strings"

	cni "repro"
	"repro/internal/params"
	"repro/internal/scenario"
)

// opts is one command's flag set plus the checks declared with its
// options. Every option registers through it next to its valid values,
// and run checks them, in declaration order, before the command. The
// global options every command takes are its fields.
type opts struct {
	*flag.FlagSet
	checks                        []func() error
	cpuprofile, memprofile, trace *string
	sampleEvery                   *uint64
	progress                      *bool
}

// newOpts returns the named command's flag set with the global options
// registered, so they may sit before or after the command word. Parse
// errors are returned, not printed.
func newOpts(name string) *opts {
	o := &opts{FlagSet: flag.NewFlagSet(name, flag.ContinueOnError)}
	o.SetOutput(io.Discard)
	o.cpuprofile = o.path("cpuprofile", "write a pprof CPU profile of the run to this file")
	o.memprofile = o.path("memprofile", "write a pprof heap profile at exit to this file")
	o.trace = o.path("trace", "write the message lifecycles of every machine built as one Chrome trace JSON")
	o.sampleEvery = o.Uint64("sample-every", 0, "with --trace: sample occupancy and counter rates every N cycles (0 = off)")
	o.progress = o.Bool("progress", false, "heartbeat sweep progress to stderr")
	o.require(func() bool { return *o.sampleEvery == 0 || *o.trace != "" },
		"--sample-every needs --trace=<path> to write its series to")
	return o
}

// set reports whether the named option (or an alias sharing its value)
// was given on the command line.
func (o *opts) set(name string) bool {
	v, set := o.Lookup(name).Value, false
	o.Visit(func(f *flag.Flag) { set = set || f.Value == v })
	return set
}

// setDefault changes a registered option's default for this command.
func (o *opts) setDefault(name, v string) {
	f := o.Lookup(name)
	if err := f.Value.Set(v); err != nil {
		panic(err) // defaults are constants of this program
	}
	f.DefValue = v
}

// valid declares the named option's valid values: a given value must
// satisfy ok, and desc describes the values that do, in both the usage
// line and the rejection. An unset option keeps its default.
func (o *opts) valid(name, desc string, ok func() bool) {
	f := o.Lookup(name)
	f.Usage += " (valid: " + desc + ")"
	o.checks = append(o.checks, func() error {
		if o.set(name) && !ok() {
			return fmt.Errorf("--%s=%s is invalid; valid values are %s", name, f.Value, desc)
		}
		return nil
	})
}

// require adds a rule between options, checked after their ranges; msg
// is the error when ok does not hold.
func (o *opts) require(ok func() bool, msg string) {
	o.checks = append(o.checks, func() error {
		if !ok() {
			return errors.New(msg)
		}
		return nil
	})
}

// span is a numeric option's valid values: desc describes them and has
// tests one. Infinities are never valid.
type span struct {
	desc string
	has  func(float64) bool
}

func atLeast(lo float64) span {
	return span{fmt.Sprintf(">= %g", lo), func(v float64) bool { return v >= lo && v < math.Inf(1) }}
}

func above(lo float64) span {
	return span{fmt.Sprintf("> %g", lo), func(v float64) bool { return v > lo && v < math.Inf(1) }}
}

func below(hi float64) span {
	return span{fmt.Sprintf("[0, %g)", hi), func(v float64) bool { return v >= 0 && v < hi }}
}

func upTo(hi float64) span {
	return span{fmt.Sprintf("[0, %g]", hi), func(v float64) bool { return v >= 0 && v <= hi }}
}

func (o *opts) intIn(name string, def int, s span, usage string) *int {
	p := o.Int(name, def, usage)
	o.valid(name, s.desc, func() bool { return s.has(float64(*p)) })
	return p
}

func (o *opts) floatIn(name string, def float64, s span, usage string) *float64 {
	p := o.Float64(name, def, usage)
	o.valid(name, s.desc, func() bool { return s.has(*p) })
	return p
}

// oneOf registers a string option whose value must be one of valid.
func (o *opts) oneOf(name, def string, valid []string, usage string) *string {
	p := o.String(name, def, usage)
	o.valid(name, strings.Join(valid, ", "), func() bool { return slices.Contains(valid, *p) })
	return p
}

// path registers an output-file option; given, it must name a file.
func (o *opts) path(name, usage string) *string {
	p := o.String(name, "", usage)
	o.require(func() bool { return *p != "" || !o.set(name) }, "--"+name+" needs a file path")
	return p
}

// The options several commands share are each registered only below;
// a command passes its own default.

func (o *opts) ni(def string) *string {
	p := o.String("ni", def, "NI design, any case; a sweep without it covers its NI set")
	o.valid("ni", strings.Join(params.NINames, ", "), func() bool {
		_, err := cni.ParseNI(*p)
		return err == nil
	})
	return p
}

// bus takes the valid attachments: the buses of a built machine, or the
// variants of a figure.
func (o *opts) bus(def string, valid []string) *string {
	return o.oneOf("bus", def, valid, "bus the NI attaches to")
}

func (o *opts) topology(def string) *string {
	return o.oneOf("topology", def, params.TopologyNames, "interconnect fabric; a sweep without it covers both")
}

// buses are the --bus values of the commands that build one machine.
var buses = map[string]cni.BusKind{"cache": cni.CacheBus, "memory": cni.MemoryBus, "io": cni.IOBus}

// machine registers the options of a command that builds one machine
// and returns the machine they select, at the given size.
func (o *opts) machine(ni, topology string) (config func(nodes int) (cni.Config, error)) {
	niName, bus, topoName := o.ni(ni), o.bus("memory", slices.Sorted(maps.Keys(buses))), o.topology(topology)
	return func(nodes int) (cni.Config, error) {
		// The options' checks passed, so both names resolve.
		kind, _ := cni.ParseNI(*niName)
		topo, _ := cni.ParseTopology(*topoName)
		cfg := cni.Config{Nodes: nodes, NI: kind, Bus: buses[*bus], Topology: topo}
		return cfg, cfg.Validate()
	}
}

func (o *opts) size(def int) *int { return o.intIn("size", def, atLeast(1), "message payload bytes") }

func (o *opts) nodes(def int) *int { return o.intIn("nodes", def, atLeast(2), "node count") }

// The defaults of incast's --count and exchange's --rounds; trace's
// micro targets run with them.
const (
	incastCount    = 24
	exchangeRounds = 3
)

func (o *opts) count() *int {
	return o.intIn("count", incastCount, atLeast(1), "incast messages per sender")
}

func (o *opts) rounds() *int { return o.intIn("rounds", exchangeRounds, atLeast(1), "exchange rounds") }

func (o *opts) shards() *int {
	return o.intIn("shards", 0, atLeast(0), "event-engine shards for torus machines over 16 nodes (0 = serial)")
}

// around runs f with the profiles and the trace collector the global
// options ask for: with --trace, every machine f builds records its
// message lifecycles (and, with --sample-every, occupancy samples). The
// profiles and the merged trace are written even when f fails, so a
// failing run still flushes what it traced.
func (o *opts) around(f func() error) error {
	stopProf, err := startProfiles(*o.cpuprofile, *o.memprofile)
	if err != nil {
		return err
	}
	if *o.trace != "" {
		scenario.SetDefaultTrace(cni.TraceSpec{Enabled: true, SampleEvery: *o.sampleEvery})
		defer scenario.SetDefaultTrace(cni.TraceSpec{})
	}
	err = f()
	if *o.trace != "" {
		caps := scenario.DrainCaptures()
		terr := fmt.Errorf("--trace=%s: the command built no simulated machines to trace", *o.trace)
		if len(caps) > 0 {
			terr = writeTraceFile(*o.trace, caps)
		}
		if err == nil {
			err = terr
		}
	}
	if perr := stopProf(); err == nil {
		err = perr
	}
	return err
}

// outputs are the --json/--csv exporters of the experiment commands.
type outputs struct{ json, csv *string }

func (o *opts) outputs() outputs {
	out := outputs{
		json: o.String("json", "", `write the machine-readable result (JSON) to this path ("-" = stdout)`),
		csv:  o.String("csv", "", `write the result grid (CSV) to this path ("-" = stdout)`),
	}
	o.require(func() bool { return *out.json != "-" || *out.csv != "-" },
		"--json=- and --csv=- cannot share stdout; send at most one format there")
	return out
}

// quiet reports whether an exporter holds stdout, which must then carry
// nothing but the export.
func (out outputs) quiet() bool { return *out.json == "-" || *out.csv == "-" }

// write prints t (when non-nil and stdout is free), then writes d per
// --json/--csv.
func (out outputs) write(t *cni.Table, d *cni.Data) error {
	if t != nil && !out.quiet() {
		fmt.Print(t.String())
	}
	if *out.json != "" {
		data, err := d.JSON()
		if err != nil {
			return err
		}
		if err := writeOut(*out.json, data); err != nil {
			return err
		}
	}
	if *out.csv != "" {
		return writeOut(*out.csv, []byte(d.CSV()))
	}
	return nil
}
