package workload

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/params"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// shardCfg builds a traced torus workload configuration at the given
// node and shard count, sampled every `every` cycles (0 leaves the
// sampler off); faults adds the full injector menu (drops,
// corruption, duplicates, delays, a degrade window, a pause, and a
// crash) so the determinism check covers the fault path too.
func shardCfg(nodes, shards int, faults bool, every uint64) params.Config {
	wl := params.DefaultWorkload()
	wl.OfferedMBps = 4
	cfg := params.Config{
		Nodes: nodes, NI: params.CNI16Q, Bus: params.MemoryBus,
		Topology: params.TopoTorus, Shards: shards, Workload: &wl,
		Trace: params.Trace{Enabled: true, RingSize: 512, SampleEvery: every},
	}
	if faults {
		cfg.Faults = params.Faults{
			Seed: 11, DropProb: 0.02, CorruptProb: 0.01, DupProb: 0.01,
			DelayProb: 0.02, DegradeFrom: 4000, DegradeUntil: 8000,
			DegradeLatencyX: 2, DegradeBandwidthX: 2,
			Pauses:  []params.FaultPause{{Node: 3, From: 3000, Until: 5000}},
			Crashes: []params.FaultCrash{{Node: 7, At: 11000}},
		}
	}
	return cfg
}

// traced is one run's workload report, byte exports of its lifecycle
// rings and of its sampled series (empty when unsampled), its end time
// and the events its engines scheduled.
type traced struct {
	rep    Report
	rings  []byte
	series []byte
	clock  sim.Time
	events uint64
}

// sameRun names the first part in which two runs differ, or returns ""
// when they agree; series is compared only when withSeries is set.
func sameRun(a, b traced, withSeries bool) string {
	switch {
	case a.rep != b.rep:
		return fmt.Sprintf("report\n  want: %+v\n  got:  %+v", a.rep, b.rep)
	case !bytes.Equal(a.rings, b.rings):
		return fmt.Sprintf("lifecycle trace (want %d bytes, got %d bytes)", len(a.rings), len(b.rings))
	case withSeries && !bytes.Equal(a.series, b.series):
		return fmt.Sprintf("sampled series (want %d bytes, got %d bytes)", len(a.series), len(b.series))
	case a.clock != b.clock:
		return fmt.Sprintf("end time (want %d, got %d)", a.clock, b.clock)
	case a.events != b.events:
		return fmt.Sprintf("events scheduled (want %d, got %d)", a.events, b.events)
	}
	return ""
}

// runTraced is Run plus everything traced holds, so the shard-count
// comparison covers every record, timestamp and gauge row, not just
// the aggregate report.
func runTraced(t *testing.T, cfg params.Config, warm, measure sim.Time) traced {
	t.Helper()
	r := newRun(cfg, warm, measure)
	defer r.m.Close()
	sc := scenario.New()
	r.addOpen(sc)
	tr := r.m.RunUntil(sc, r.endAt)
	var sent, delivered, winBytes uint64
	for id := 0; id < r.n; id++ {
		sent += r.sent[id]
		delivered += r.delivered[id]
		winBytes += r.winBytes[id]
	}
	out := traced{
		rep: Report{
			OfferedMBps:   r.wl.OfferedMBps * float64(r.n),
			Sent:          sent,
			Delivered:     delivered,
			GoodputMBps:   float64(winBytes) * params.CPUMHz / float64(r.endAt-r.warmEnd),
			NetDelivery:   tr.Histogram("net.delivery"),
			Drops:         tr.Counter("net.drops"),
			Retransmits:   tr.Counter("net.retransmits"),
			DupSuppressed: tr.Counter("net.dup_suppressed"),
			Dead:          tr.Counter("net.dead"),
			Recovery:      tr.Histogram("net.recovery"),
		},
		clock:  r.m.Clock(),
		events: r.m.EventsScheduled(),
	}
	for id := range r.hists {
		out.rep.Latency.Merge(&r.hists[id])
	}
	export := func(c trace.Capture) []byte {
		var buf bytes.Buffer
		if _, err := trace.WriteChrome(&buf, c); err != nil {
			t.Fatalf("trace export: %v", err)
		}
		return buf.Bytes()
	}
	out.rings = export(trace.Capture{Label: "shard", Rec: r.m.TraceRecorder()})
	if smp := r.m.TraceSampler(); cfg.Trace.SampleEvery > 0 {
		if smp.Rows() == 0 {
			t.Fatal("the sampled run recorded no rows")
		}
		out.series = export(trace.Capture{Label: "shard", Smp: smp})
	}
	return out
}

// TestShardDeterminism is the sharded engine's contract: the shard count
// never changes results, and neither does sampling. A single-shard
// ShardSet executes serially (no worker goroutines, one heap) and is
// the reference ordering; 2/4/8 shards must reproduce its workload
// report, its per-node lifecycle trace and its sampled series byte
// for byte, unsampled and sampled, with and without the full fault
// menu. At every shard count the sampled run must also equal the
// unsampled one in everything but its series: sampling cuts Run into
// slices at each sample time, so this covers both the unclipped and
// the clipped epoch schedule. The sampler reads gauges between slices
// of Run, so with GOMAXPROCS > 1 the race detector also checks those
// reads against the live epoch workers.
func TestShardDeterminism(t *testing.T) {
	t.Parallel()
	sizes := []int{64, 256}
	if !testing.Short() {
		sizes = append(sizes, 1024)
	}
	everies := []uint64{0, 500}
	for _, nodes := range sizes {
		for _, faults := range []bool{false, true} {
			ref := make([]traced, len(everies))
			for _, shards := range []int{1, 2, 4, 8} {
				var plain traced
				for i, every := range everies {
					got := runTraced(t, shardCfg(nodes, shards, faults, every), 2000, 10_000)
					if shards == 1 {
						ref[i] = got
						if got.rep.Delivered == 0 {
							t.Fatalf("nodes=%d faults=%v every=%d: reference run delivered nothing", nodes, faults, every)
						}
					} else if d := sameRun(ref[i], got, true); d != "" {
						t.Errorf("nodes=%d faults=%v every=%d shards=%d: diverges from serial in its %s", nodes, faults, every, shards, d)
					}
					if every == 0 {
						plain = got
					} else if d := sameRun(plain, got, false); d != "" {
						t.Errorf("nodes=%d faults=%v every=%d shards=%d: diverges from the unsampled run in its %s", nodes, faults, every, shards, d)
					}
				}
			}
		}
	}
}

// TestShardGatingStaysSerial pins the gate: small machines and the
// flat fabric ignore Shards and run one shard that never crosses, in
// the serial event order, so every pre-sharding golden stays
// byte-identical — the report with Shards=4 equals the one with
// Shards=0.
func TestShardGatingStaysSerial(t *testing.T) {
	t.Parallel()
	wl := params.DefaultWorkload()
	wl.OfferedMBps = 4
	for _, c := range []struct {
		name  string
		nodes int
		topo  params.Topology
	}{
		{"16-node torus", 16, params.TopoTorus},
		{"64-node flat", 64, params.TopoFlat},
	} {
		cfg := func(shards int) params.Config {
			return params.Config{Nodes: c.nodes, NI: params.CNI16Q, Bus: params.MemoryBus,
				Topology: c.topo, Shards: shards, Workload: &wl}
		}
		m, err := scenario.Build(cfg(4))
		if err != nil {
			t.Fatal(err)
		}
		if m.Sharded() {
			t.Errorf("%s with Shards=4 must stay in the serial order", c.name)
		}
		m.Close()
		ref := Run(cfg(0), 2000, 10_000)
		if ref.Delivered == 0 {
			t.Fatalf("%s: reference run delivered nothing", c.name)
		}
		if got := Run(cfg(4), 2000, 10_000); got != ref {
			t.Errorf("%s: Shards=4 report diverges from Shards=0\n  ref: %+v\n  got: %+v", c.name, ref, got)
		}
	}
}

// TestShardEventsScheduledCountsEveryShard: a sharded machine's
// EventsScheduled counts the events of every shard's engine, so the
// same 64-node torus run reports the same count at every shard count.
func TestShardEventsScheduledCountsEveryShard(t *testing.T) {
	t.Parallel()
	var ref uint64
	for _, shards := range []int{1, 4, 16} {
		r := newRun(shardCfg(64, shards, false, 0), 2000, 6000)
		sc := scenario.New()
		r.addOpen(sc)
		r.m.RunUntil(sc, r.endAt)
		got := r.m.EventsScheduled()
		r.m.Close()
		if shards == 1 {
			ref = got
			if ref == 0 {
				t.Fatal("the one-shard run scheduled no events")
			}
			continue
		}
		if got != ref {
			t.Errorf("Shards=%d: %d events scheduled, want %d as at Shards=1", shards, got, ref)
		}
	}
}
