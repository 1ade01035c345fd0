package workload

import (
	"bytes"
	"testing"

	"repro/internal/params"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

// shardCfg builds a traced torus workload configuration at the given
// node and shard count; faults adds the full injector menu (drops,
// corruption, duplicates, delays, a degrade window, a pause, and a
// crash) so the determinism check covers the fault path too.
func shardCfg(nodes, shards int, faults bool) params.Config {
	wl := params.DefaultWorkload()
	wl.OfferedMBps = 4
	cfg := params.Config{
		Nodes: nodes, NI: params.CNI16Q, Bus: params.MemoryBus,
		Topology: params.TopoTorus, Shards: shards, Workload: &wl,
		Trace: params.Trace{Enabled: true, RingSize: 512},
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

// runTraced is Run plus a byte export of the lifecycle rings, so the
// shard-count comparison covers every record and timestamp, not just
// the aggregate report.
func runTraced(t *testing.T, cfg params.Config, warm, measure sim.Time) (Report, []byte) {
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
	rep := Report{
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
	}
	for id := range r.hists {
		rep.Latency.Merge(&r.hists[id])
	}
	var buf bytes.Buffer
	if _, err := trace.WriteChrome(&buf, trace.Capture{Label: "shard", Rec: r.m.TraceRecorder()}); err != nil {
		t.Fatalf("trace export: %v", err)
	}
	return rep, buf.Bytes()
}

// TestShardDeterminism is the tentpole's contract: the shard count
// never changes results. A single-shard ShardSet executes serially
// (no worker goroutines, one heap) and is the reference ordering;
// 2/4/8 shards must reproduce its workload report AND its per-node
// lifecycle trace byte for byte, with the full fault menu active.
func TestShardDeterminism(t *testing.T) {
	t.Parallel()
	sizes := []int{64, 256}
	if !testing.Short() {
		sizes = append(sizes, 1024)
	}
	for _, nodes := range sizes {
		for _, faults := range []bool{false, true} {
			ref, refTrace := runTraced(t, shardCfg(nodes, 1, faults), 2000, 10_000)
			if ref.Delivered == 0 {
				t.Fatalf("nodes=%d faults=%v: reference run delivered nothing", nodes, faults)
			}
			for _, shards := range []int{2, 4, 8} {
				got, gotTrace := runTraced(t, shardCfg(nodes, shards, faults), 2000, 10_000)
				if got != ref {
					t.Errorf("nodes=%d faults=%v shards=%d: report diverges from serial\n  ref: %+v\n  got: %+v",
						nodes, faults, shards, ref, got)
				}
				if !bytes.Equal(gotTrace, refTrace) {
					t.Errorf("nodes=%d faults=%v shards=%d: lifecycle trace diverges from serial (ref %d bytes, got %d bytes)",
						nodes, faults, shards, len(refTrace), len(gotTrace))
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
