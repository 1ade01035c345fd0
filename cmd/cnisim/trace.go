package main

import (
	"fmt"
	"os"
	"strconv"

	cni "repro"
	"repro/internal/dcn"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// writeTraceFile writes one merged Chrome trace JSON document and
// announces its span accounting on stderr (stdout stays reserved for
// the command's own output).
func writeTraceFile(path string, caps []trace.Capture) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sum, err := scenario.WriteCaptures(f, caps)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s: %d machines, %d records -> %d events (%d message spans, %d user deliveries, %d link spans, %d samples, %d overwritten)\n",
		path, len(caps), sum.Records, sum.Events, sum.FragSpans, sum.UserSpans, sum.LinkSpans, sum.Samples, sum.Overwritten)
	if sum.Overwritten > 0 {
		fmt.Fprintf(os.Stderr, "warning: %d records overwritten (raise Trace.RingSize or trace a shorter run)\n", sum.Overwritten)
	}
	return nil
}

// traceCmd runs one well-known measurement with full telemetry on: the
// global --trace (alias --out) and --sample-every default to a file and
// the default sampling period. The loadsweep target replays the
// benchjson canary's machine (the CNI512Q saturation-knee load point),
// so the trace's user-delivery spans cross-check against the pinned
// delivered-message count; the micro targets are the micro commands.
func traceCmd(_ string, o *opts) func(string) error {
	o.setDefault("trace", "trace.json")
	o.setDefault("sample-every", strconv.Itoa(cni.TraceSampleDefault))
	o.Var(o.Lookup("trace").Value, "out", "alias of --trace")
	config, size, nodes := o.machine("CNI512Q", "torus"), o.size(64), o.nodes(16)
	return func(target string) error {
		n := *nodes
		if target == "latency" || target == "bandwidth" {
			n = 2
		}
		cfg, err := config(n)
		if err != nil {
			return err
		}
		switch target {
		case "loadsweep":
			wl := cni.DefaultWorkload()
			wl.OfferedMBps = cni.LoadsweepBenchPerNodeMBps
			cfg.Nodes = cni.LoadsweepBenchNodes
			cfg.Workload = &wl
			if err := cfg.Validate(); err != nil {
				return err
			}
			rep := cni.MeasureLoad(cfg, cni.LoadsweepBenchWarm, cni.LoadsweepBenchMeasure)
			fmt.Printf("%s saturation-knee point: offered %.1f MB/s, goodput %.1f MB/s, delivered %d\n",
				cfg.Name(), rep.OfferedMBps, rep.GoodputMBps, rep.Delivered)
		case "rpc":
			// A scaled-down fan-out point: enough calls to populate the
			// timeline without overflowing the trace ring. Built explicitly
			// so the recorder stays inspectable for the per-hop breakdown.
			spec := cni.DefaultRPCSpec()
			spec.Clients = 1000
			spec.ThinkCycles = 200_000
			m, err := scenario.Build(cfg)
			if err != nil {
				return err
			}
			defer m.Close()
			rep, err := dcn.RunRPCOn(m, spec, 10_000, 200_000)
			if err != nil {
				return err
			}
			fmt.Printf("%s rpc k=%d: goodput %.1f KRPS, p99.9 %.1f us, %d completed\n",
				cfg.Name(), spec.Tiers[0].Fanout, rep.GoodputKRPS,
				cni.Microseconds(rep.Latency.Quantile(0.999)), rep.Completed)
			if rec := m.TraceRecorder(); rec != nil {
				b := rec.ComputeBreakdown()
				fmt.Printf("per-hop breakdown (us): NI stall p50 %.2f p99 %.2f | fabric p50 %.2f p99 %.2f | dispatch p50 %.2f p99 %.2f (%d frags, %d msgs)\n",
					cni.Microseconds(b.Stall.Quantile(0.50)), cni.Microseconds(b.Stall.Quantile(0.99)),
					cni.Microseconds(b.Fabric.Quantile(0.50)), cni.Microseconds(b.Fabric.Quantile(0.99)),
					cni.Microseconds(b.Dispatch.Quantile(0.50)), cni.Microseconds(b.Dispatch.Quantile(0.99)),
					b.Frags, b.Msgs)
			}
		case "collective":
			rep, err := cni.RunCollective(cfg, cni.DefaultCollectiveSpec())
			if err != nil {
				return err
			}
			fmt.Printf("%s %s: %.1f us over %d steps, max skew %d cycles\n",
				cfg.Name(), rep.Schedule, rep.CompletionMicros, rep.Steps, rep.MaxSkew)
		default:
			micro(target, cfg, *size, incastCount, exchangeRounds)
		}
		return nil
	}
}
