// Command cnisim regenerates the tables and figures of "Coherent
// Network Interfaces for Fine-Grain Communication" (ISCA 1996) on the
// reproduction's simulator.
//
// Usage:
//
//	cnisim list
//	cnisim table1|table2|table3|table4
//	cnisim fig6 [--bus=memory|io|alt]
//	cnisim fig7 [--bus=memory|io|alt]
//	cnisim fig8 [--bus=memory|io|alt] [--apps=spsolve,gauss,...]
//	cnisim occupancy [--apps=...]
//	cnisim ablation
//	cnisim sweep
//	cnisim dma
//	cnisim congestion
//	cnisim latency --ni=CNI512Q --bus=memory --size=64 [--topology=torus]
//	cnisim bandwidth --ni=CNI512Q --bus=memory --size=4096 [--topology=torus]
//	cnisim incast --ni=CNI512Q --bus=memory --size=244 [--topology=torus]
//	cnisim exchange --ni=CNI512Q --bus=memory --size=64 [--topology=torus]
//	cnisim bench --app=spsolve --ni=CNI16Qm --bus=memory [--topology=torus]
//	cnisim loadsweep [--arrival=poisson|bursty|closed] [--zipf=1.1] [--ni=...] [--topology=...]
//	cnisim loadsweep --load=8 --ni=CNI512Q --topology=torus [--nodes=4096 --shards=64]
//	cnisim faultsweep [--drop=1e-3] [--degrade=4] [--seed=7] [--ni=...] [--topology=...]
//	cnisim rpc [--clients=N] [--hedge=0.1] [--ni=...] [--topology=...]
//	cnisim rpc --fanout=8 [--think=cycles] [--incast-chunk=B] [--ni=...] [--topology=...]
//	cnisim collective [--bytes=N] [--ni=...] [--topology=...]
//	cnisim collective --schedule=ring-allreduce [--nodes=64 --shards=4]
//	cnisim benchjson [--out=BENCH_sim.json] [--check]
//	cnisim trace loadsweep --topology=torus [--out=trace.json] [--sample-every=1000]
//	cnisim all
//
// The global --trace=out.json / --sample-every=N / --progress flags
// work on every command: any machine the command builds records its
// message lifecycles (and optionally periodic occupancy samples) and
// the merged timeline is written as Chrome trace-event JSON, loadable
// in Perfetto.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	cni "repro"
)

func main() {
	// Profile and telemetry flags are shared by every subcommand and
	// may sit before or after the command word; strip them before
	// dispatch.
	prof, args, err := parseProfileFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "cnisim:", err)
		os.Exit(2)
	}
	tf, args, err := parseTraceFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cnisim:", err)
		os.Exit(2)
	}
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	cmd, args := args[0], args[1:]
	stopProf, err := prof.start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cnisim:", err)
		os.Exit(1)
	}
	if cmd == "trace" {
		// The dedicated trace command owns the telemetry flags itself.
		err = runTrace(tf, args)
	} else {
		var finishTrace func() error
		finishTrace, err = tf.install()
		if err == nil {
			err = run(cmd, args)
			if terr := finishTrace(); err == nil {
				err = terr
			}
		}
	}
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cnisim:", err)
		os.Exit(1)
	}
}

// usageText is the command summary; main_test.go checks it stays in
// sync with cni.ExperimentNames().
const usageText = `usage: cnisim <command> [flags]

commands:
  list              list experiments (--json: the registry with titles and tags)
  table1..table4    the paper's tables
  fig6|fig7|fig8    the paper's figures (--bus=memory|io|alt)
  occupancy         §5.2 memory-bus occupancy (--apps=...)
  ablation          CQ optimisation ablation
  sweep             queue-size sweep
  dma               CNI vs user-level-DMA comparison
  congestion        probe RTT/bandwidth under load, flat vs torus
  loadsweep         offered-load sweep to saturation with tail-latency telemetry
                    (--arrival --zipf --ni --topology --seed;
                    --load=MB/s per node measures one point instead, scalable
                    with --nodes and --shards: a torus machine over 16 nodes
                    with --shards=N runs the sharded conservative-lookahead
                    engine, byte-identical across shard counts)
  faultsweep        goodput/tail latency vs injected drop rate under the
                    reliable transport (--drop --degrade --seed --ni --topology)
  rpc               datacenter RPC fan-out tail-at-scale sweep with aggregated
                    million-client populations (--clients --client-zipf --hedge
                    --hedge-after --ni --topology --seed; --fanout=k measures one
                    point instead, optionally with --think=cycles and the
                    --incast-chunk=B storage preset)
  collective        collective-schedule sweep: completion time and per-step skew
                    (--bytes --ni --topology; --schedule=ring-allreduce|rd-allreduce|
                    alltoall|broadcast runs one schedule with per-step detail,
                    scalable with --nodes and --shards; rd-allreduce needs a
                    power-of-two node count)
  latency           one 2-node round-trip measurement (--ni --bus --size --topology)
  bandwidth         one 2-node bandwidth measurement (--ni --bus --size --topology)
  incast            hotspot incast: all nodes stream to node 0 (--ni --bus --nodes --size --count --topology)
  exchange          personalised all-to-all (--ni --bus --nodes --size --rounds --topology)
  bench             one macrobenchmark run (--app --ni --bus --nodes --topology)
  benchjson         write headline perf metrics to BENCH_sim.json (--out; --check diffs canaries)
  trace             run one target (loadsweep, rpc, collective, latency,
                    bandwidth, incast, exchange)
                    with full telemetry and write its Perfetto-loadable timeline
                    (--out --sample-every --ni --bus --topology --size --nodes)
  all               every experiment in sequence

flags:
  --topology=flat|torus           interconnect fabric (default flat, the paper's model)
  --arrival=poisson|bursty|closed workload arrival process (loadsweep)
  --json=path  --csv=path         machine-readable export, uniform across every
                                  experiment command ("-" writes to stdout and
                                  suppresses the human-readable table)
  --trace=path                    record message lifecycles on every machine the
                                  command builds; write one merged Chrome trace
                                  JSON (open in https://ui.perfetto.dev)
  --sample-every=N                with --trace: sample link/queue/window occupancy
                                  and counter rates every N simulated cycles
  --progress                      heartbeat sweep progress to stderr (loadsweep,
                                  faultsweep, rpc, collective)
  --cpuprofile=path               write a pprof CPU profile of the run (any command)
  --memprofile=path               write a pprof heap profile at exit (any command)`

func usage() {
	fmt.Fprintln(os.Stderr, usageText)
}

func run(cmd string, args []string) error {
	switch cmd {
	case "list":
		return runList(args)
	case "table1", "table2", "table3", "table4",
		"ablation", "sweep", "dma", "congestion":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		jsonOut, csvOut := exportFlags(fs)
		if err := fs.Parse(args); err != nil {
			return err
		}
		return show(cmd, nil, *jsonOut, *csvOut)
	case "fig6", "fig7", "fig8", "occupancy":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		bus := fs.String("bus", "memory", "memory, io, or alt")
		appList := fs.String("apps", "", "comma-separated benchmark subset")
		jsonOut, csvOut := exportFlags(fs)
		if err := fs.Parse(args); err != nil {
			return err
		}
		name := cmd
		if cmd != "occupancy" {
			name = cmd + "-" + *bus
		}
		return show(name, splitApps(*appList), *jsonOut, *csvOut)
	case "latency", "bandwidth", "incast", "exchange":
		return runMicro(cmd, args)
	case "loadsweep":
		return runLoadSweep(args)
	case "faultsweep":
		return runFaultSweep(args)
	case "rpc":
		return runRPC(args)
	case "collective":
		return runCollective(args)
	case "bench":
		return runBench(args)
	case "benchjson":
		return runBenchJSON(args)
	case "all":
		for _, n := range cni.ExperimentNames() {
			if err := show(n, nil, "", ""); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	default:
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// runList prints the experiment names, or the full registry (name,
// title, tags) as JSON with --json.
func runList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the registry (name, title, tags) as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
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
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// exportFlags installs the uniform machine-readable export flags.
func exportFlags(fs *flag.FlagSet) (jsonOut, csvOut *string) {
	jsonOut = fs.String("json", "", `write the machine-readable result (JSON) to this path ("-" = stdout)`)
	csvOut = fs.String("csv", "", `write the result grid (CSV) to this path ("-" = stdout)`)
	return jsonOut, csvOut
}

func show(name string, apps []string, jsonOut, csvOut string) error {
	// Flag conflicts fail before the (possibly multi-minute) run.
	if err := validateExport(jsonOut, csvOut); err != nil {
		return err
	}
	t, d, err := cni.ExperimentData(name, cni.RunOptions{Apps: apps})
	if err != nil {
		return err
	}
	printTable(t, jsonOut, csvOut)
	return export(d, jsonOut, csvOut)
}

// printTable renders the human-readable table, unless an exporter is
// aimed at stdout — then the stream must stay machine-parseable.
func printTable(t *cni.Table, jsonOut, csvOut string) {
	if jsonOut == "-" || csvOut == "-" {
		return
	}
	fmt.Print(t.String())
}

// validateExport rejects export-flag combinations up front.
func validateExport(jsonOut, csvOut string) error {
	if jsonOut == "-" && csvOut == "-" {
		return fmt.Errorf("--json=- and --csv=- cannot share stdout; send at most one format there")
	}
	return nil
}

// export writes an experiment's Data per the --json/--csv flags.
func export(d *cni.Data, jsonOut, csvOut string) error {
	if err := validateExport(jsonOut, csvOut); err != nil {
		return err
	}
	if jsonOut != "" {
		data, err := d.JSON()
		if err != nil {
			return err
		}
		if err := writeOut(jsonOut, data); err != nil {
			return err
		}
	}
	if csvOut != "" {
		if err := writeOut(csvOut, []byte(d.CSV())); err != nil {
			return err
		}
	}
	return nil
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

func splitApps(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// parseConfig resolves --ni/--bus/--topology flags to a Config.
func parseConfig(ni, bus, topology string, nodes int) (cni.Config, error) {
	cfg := cni.Config{Nodes: nodes}
	topo, err := cni.ParseTopology(topology)
	if err != nil {
		return cfg, err
	}
	cfg.Topology = topo
	kind, err := cni.ParseNI(ni)
	if err != nil {
		return cfg, err
	}
	cfg.NI = kind
	switch bus {
	case "cache":
		cfg.Bus = cni.CacheBus
	case "memory":
		cfg.Bus = cni.MemoryBus
	case "io":
		cfg.Bus = cni.IOBus
	default:
		return cfg, fmt.Errorf("unknown bus %q (valid: cache, memory, io)", bus)
	}
	return cfg, cfg.Validate()
}

func runMicro(cmd string, args []string) error {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	ni := fs.String("ni", "CNI512Q", "NI design")
	bus := fs.String("bus", "memory", "bus attachment")
	topology := fs.String("topology", "flat", "interconnect fabric (flat or torus)")
	size := fs.Int("size", 64, "message payload bytes")
	// latency/bandwidth are 2-node by definition; only the collectives
	// take a node count, so a stray --nodes cannot silently mislead.
	var nodes, count, rounds *int
	switch cmd {
	case "incast":
		nodes = fs.Int("nodes", 16, "node count")
		count = fs.Int("count", 24, "messages per sender")
	case "exchange":
		nodes = fs.Int("nodes", 16, "node count")
		rounds = fs.Int("rounds", 3, "exchange rounds")
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	n := 2
	if nodes != nil {
		n = *nodes
	}
	cfg, err := parseConfig(*ni, *bus, *topology, n)
	if err != nil {
		return err
	}
	switch cmd {
	case "latency":
		rtt := cni.RoundTrip(cfg, *size, 4)
		fmt.Printf("%s %dB round-trip: %d cycles (%.2f us)\n",
			cfg.Name(), *size, rtt, cni.Microseconds(rtt))
	case "bandwidth":
		bw := cni.Bandwidth(cfg, *size, 200)
		bound := cni.LocalQueueBandwidth()
		fmt.Printf("%s %dB bandwidth: %.1f MB/s (%.2f of the %.0f MB/s local-queue bound)\n",
			cfg.Name(), *size, bw, bw/bound, bound)
	case "incast":
		bw := cni.HotspotIncast(cfg, *size, *count)
		fmt.Printf("%s %d-node incast, %dB x %d/sender: %.1f MB/s delivered at the sink\n",
			cfg.Name(), cfg.Nodes, *size, *count, bw)
	case "exchange":
		cyc := cni.AllToAllExchange(cfg, *size, *rounds)
		fmt.Printf("%s %d-node all-to-all, %dB: %d cycles/round (%.2f us)\n",
			cfg.Name(), cfg.Nodes, *size, cyc, cni.Microseconds(cyc))
	}
	return nil
}

func runBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	app := fs.String("app", "spsolve", "benchmark name")
	ni := fs.String("ni", "CNI16Qm", "NI design")
	bus := fs.String("bus", "memory", "bus attachment")
	topology := fs.String("topology", "flat", "interconnect fabric (flat or torus)")
	nodes := fs.Int("nodes", 16, "node count")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := parseConfig(*ni, *bus, *topology, *nodes)
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
