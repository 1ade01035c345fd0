// Command cnisim regenerates the tables and figures of "Coherent
// Network Interfaces for Fine-Grain Communication" (ISCA 1996) on the
// reproduction's simulator. Run it without arguments for the list of
// commands, and `cnisim <command> -h` for a command's options.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	cni "repro"
	"repro/internal/harness"
	"repro/internal/sim"
)

func main() {
	if err := cli(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "cnisim:", err)
		os.Exit(1)
	}
}

// command is one entry of the command table, from which dispatch, the
// usage text and `cnisim <command> -h` all come.
type command struct {
	names   []string // the words that run it
	summary string
	// targets are the valid values of the one argument the command
	// takes (cnisim trace <target>); nil for a command that takes none.
	targets []string
	// setup registers the command's options on o and returns its run
	// function, which sees them parsed and checked.
	setup func(name string, o *opts) (run func(target string) error)
}

var commands = []command{
	{names: []string{"list"}, setup: listCmd, summary: "list the experiments"},
	{names: []string{"table1", "table2", "table3", "table4"}, setup: experiment(false), summary: "the paper's tables"},
	{names: []string{"fig6", "fig7", "fig8"}, setup: experiment(true), summary: "the paper's figures"},
	{names: []string{"occupancy"}, setup: experiment(true), summary: "§5.2 memory-bus occupancy"},
	{names: []string{"ablation"}, setup: experiment(false), summary: "CQ optimisation ablation"},
	{names: []string{"sweep"}, setup: experiment(false), summary: "queue-size sweep"},
	{names: []string{"dma"}, setup: experiment(false), summary: "CNI vs user-level-DMA comparison"},
	{names: []string{"congestion"}, setup: experiment(false), summary: "probe RTT/bandwidth under load, flat vs torus"},
	{names: []string{"loadsweep"}, setup: loadsweepCmd, summary: "offered-load sweep to saturation with tail latency; --load measures one point"},
	{names: []string{"faultsweep"}, setup: faultsweepCmd, summary: "goodput and tail latency vs drop rate under the reliable transport"},
	{names: []string{"rpc"}, setup: rpcCmd, summary: "datacenter RPC fan-out tail-at-scale sweep; --fanout measures one point"},
	{names: []string{"collective"}, setup: collectiveCmd, summary: "collective-schedule sweep; --schedule runs one schedule"},
	{names: []string{"latency"}, setup: microCmd, summary: "one 2-node round-trip measurement"},
	{names: []string{"bandwidth"}, setup: microCmd, summary: "one 2-node bandwidth measurement"},
	{names: []string{"incast"}, setup: microCmd, summary: "hotspot incast: all nodes stream to node 0"},
	{names: []string{"exchange"}, setup: microCmd, summary: "personalised all-to-all"},
	{names: []string{"bench"}, setup: benchCmd, summary: "one macrobenchmark run"},
	{names: []string{"benchjson"}, setup: benchjsonCmd, summary: "write headline perf metrics to BENCH_sim.json (--check diffs the canaries)"},
	{names: []string{"trace"}, setup: traceCmd, summary: "run one target with full telemetry and write its Perfetto-loadable timeline",
		targets: []string{"loadsweep", "rpc", "collective", "latency", "bandwidth", "incast", "exchange"}},
	{names: []string{"all"}, setup: allCmd, summary: "every experiment in sequence"},
}

// cli runs a full command line: the first argument that is not a global
// option (or its value) names the command, and the global options
// before it join the command's own.
func cli(args []string) error {
	o := newOpts("cnisim")
	if err := o.Parse(args); err != nil || o.NArg() == 0 {
		usage(os.Stderr)
		if err == nil {
			err = errors.New("need a command")
		}
		return err
	}
	return run(o.Arg(0), slices.Concat(args[:len(args)-o.NArg()], o.Args()[1:]))
}

// run parses args as the options (and, for trace, the target) of the
// named command, checks them, and runs it.
func run(name string, args []string) error {
	i := slices.IndexFunc(commands, func(c command) bool { return slices.Contains(c.names, name) })
	if i < 0 {
		usage(os.Stderr)
		return fmt.Errorf("unknown command %q", name)
	}
	c, o, target := commands[i], newOpts(name), ""
	exec := c.setup(name, o)
	// Options may sit on either side of the target; later ones win.
	for {
		if err := o.Parse(args); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				describe(os.Stderr, c, o)
				fmt.Fprint(os.Stderr, "\noptions:\n")
				o.SetOutput(os.Stderr)
				o.PrintDefaults()
			}
			return err
		}
		if c.targets == nil || target != "" || o.NArg() == 0 {
			break
		}
		target, args = o.Arg(0), o.Args()[1:]
	}
	if o.NArg() > 0 {
		return fmt.Errorf("%s: unexpected argument %q", name, o.Arg(0))
	}
	if c.targets != nil && !slices.Contains(c.targets, target) {
		return fmt.Errorf("%s: unknown target %q; valid targets are %s", name, target, strings.Join(c.targets, ", "))
	}
	for _, check := range o.checks {
		if err := check(); err != nil {
			return err
		}
	}
	return o.around(func() (err error) {
		defer recoverRun(&err)
		return exec(target)
	})
}

// recoverRun turns a panic in a simulated process or a sweep cell into
// the command's error. Any other panic is a bug and keeps crashing.
func recoverRun(err *error) {
	switch r := recover().(type) {
	case nil:
	case *harness.CellPanic:
		*err = r
	case *sim.ProcessPanic:
		*err = r
	default:
		panic(r)
	}
}

// usage prints every command, then the global options.
func usage(w io.Writer) {
	fmt.Fprint(w, "usage: cnisim <command> [target] [options]\n\n"+
		"`cnisim <command> -h` describes a command's options.\n\ncommands:\n")
	for _, c := range commands {
		o := newOpts(c.names[0])
		c.setup(c.names[0], o)
		describe(w, c, o)
	}
	fmt.Fprint(w, "\nglobal options (any command, before or after its name):\n")
	global := newOpts("")
	global.SetOutput(w)
	global.PrintDefaults()
}

// describe prints a command's names, summary and targets on one line,
// and the names of its own options (o minus the global ones) on the
// next.
func describe(w io.Writer, c command, o *opts) {
	head, summary := strings.Join(c.names, "|"), c.summary
	if c.targets != nil {
		head += " <target>"
		summary += "; targets: " + strings.Join(c.targets, ", ")
	}
	fmt.Fprintf(w, "  %s  %s\n", head, summary)
	var options []string
	global := newOpts("")
	o.VisitAll(func(f *flag.Flag) {
		if global.Lookup(f.Name) == nil {
			options = append(options, "--"+f.Name)
		}
	})
	if options != nil {
		fmt.Fprintf(w, "      %s\n", strings.Join(options, " "))
	}
}

// listCmd prints the experiment names, or the full registry (name,
// title, tags) as JSON with --json.
func listCmd(_ string, o *opts) func(string) error {
	asJSON := o.Bool("json", false, "emit the registry (name, title, tags) as JSON")
	return func(string) error {
		if !*asJSON {
			for _, n := range cni.ExperimentNames() {
				fmt.Println(n)
			}
			return nil
		}
		type entry struct {
			Name  string   `json:"name"`
			Title string   `json:"title"`
			Tags  []string `json:"tags"`
		}
		out := make([]entry, 0, len(cni.Experiments()))
		for _, e := range cni.Experiments() {
			out = append(out, entry{Name: e.Name, Title: e.Title, Tags: e.Tags})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
}

// experiment is the setup of the commands that run a registry
// experiment of their name. A family of experiments (fig6-memory,
// fig6-io, ...) picks its member with --bus; withApps adds the
// macrobenchmark subset option.
func experiment(withApps bool) func(string, *opts) func(string) error {
	return func(name string, o *opts) func(string) error {
		var variants []string
		for _, n := range cni.ExperimentNames() {
			if v, ok := strings.CutPrefix(n, name+"-"); ok {
				variants = append(variants, v)
			}
		}
		var bus, apps *string
		if variants != nil {
			bus = o.bus(variants[0], variants)
		}
		if withApps {
			apps = o.String("apps", "", "comma-separated benchmark subset")
		}
		out := o.outputs()
		return func(string) error {
			exp, opt := name, cni.RunOptions{}
			if bus != nil {
				exp += "-" + *bus
			}
			if apps != nil && *apps != "" {
				opt.Apps = strings.Split(*apps, ",")
			}
			t, d, err := cni.ExperimentData(exp, opt)
			if err != nil {
				return err
			}
			return out.write(t, d)
		}
	}
}

// allCmd prints every experiment's table in registry order.
func allCmd(string, *opts) func(string) error {
	return func(string) error {
		for _, n := range cni.ExperimentNames() {
			t, _, err := cni.ExperimentData(n, cni.RunOptions{})
			if err != nil {
				return err
			}
			fmt.Println(t.String())
		}
		return nil
	}
}

// writeOut writes to a file or to stdout ("-"). The announcement goes
// to stderr so a "-" exporter combined with a file exporter still
// leaves stdout machine-parseable.
func writeOut(path string, data []byte) error {
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// microCmd measures one microbenchmark: latency and bandwidth on two
// nodes, incast and exchange on --nodes.
func microCmd(name string, o *opts) func(string) error {
	config, size := o.machine("CNI512Q", "flat"), o.size(64)
	nodes, count, rounds := new(int), new(int), new(int)
	*nodes = 2
	switch name {
	case "incast":
		nodes, count = o.nodes(16), o.count()
	case "exchange":
		nodes, rounds = o.nodes(16), o.rounds()
	}
	return func(string) error {
		cfg, err := config(*nodes)
		if err != nil {
			return err
		}
		micro(name, cfg, *size, *count, *rounds)
		return nil
	}
}

// micro runs the named microbenchmark on cfg and prints its result.
func micro(name string, cfg cni.Config, size, count, rounds int) {
	switch name {
	case "latency":
		rtt := cni.RoundTrip(cfg, size, 4)
		fmt.Printf("%s %dB round-trip: %d cycles (%.2f us)\n",
			cfg.Name(), size, rtt, cni.Microseconds(rtt))
	case "bandwidth":
		bw := cni.Bandwidth(cfg, size, 200)
		bound := cni.LocalQueueBandwidth()
		fmt.Printf("%s %dB bandwidth: %.1f MB/s (%.2f of the %.0f MB/s local-queue bound)\n",
			cfg.Name(), size, bw, bw/bound, bound)
	case "incast":
		bw := cni.HotspotIncast(cfg, size, count)
		fmt.Printf("%s %d-node incast, %dB x %d/sender: %.1f MB/s delivered at the sink\n",
			cfg.Name(), cfg.Nodes, size, count, bw)
	case "exchange":
		cyc := cni.AllToAllExchange(cfg, size, rounds)
		fmt.Printf("%s %d-node all-to-all, %dB: %d cycles/round (%.2f us)\n",
			cfg.Name(), cfg.Nodes, size, cyc, cni.Microseconds(cyc))
	}
}

func benchCmd(_ string, o *opts) func(string) error {
	app := o.oneOf("app", "spsolve", cni.Benchmarks(), "macrobenchmark")
	config, nodes := o.machine("CNI16Qm", "flat"), o.nodes(16)
	return func(string) error {
		cfg, err := config(*nodes)
		if err != nil {
			return err
		}
		res, err := cni.RunBenchmark(*app, cfg)
		if err != nil {
			return err
		}
		fmt.Println(res.String())
		return nil
	}
}
