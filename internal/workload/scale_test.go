package workload

import (
	"runtime"
	"testing"

	"repro/internal/params"
	"repro/internal/scenario"
)

// liveHeap returns the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestMemoryScale: machine state grows with nodes and the messages in
// flight, not with node pairs. A sharded torus in the 4096-node
// benchmark regime (uniform destinations, 64 MB/s per node, one shard
// per torus row) must build in under 64 KB of live heap per node —
// half of that is the node's 256 KB cache's tag array, and one dense
// per-pair table of 8-byte entries would alone take 32 KB more — and a
// 16,384-node machine must build within the same budget and carry
// traffic.
func TestMemoryScale(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 4096- and 16384-node machines")
	}
	const perNodeBudget = 64 << 10
	for _, nodes := range []int{4096, 16384} {
		wl := params.DefaultWorkload()
		wl.OfferedMBps = 64
		wl.ZipfS = 0
		w, h := params.TorusDims(nodes)
		cfg := params.Config{Nodes: nodes, NI: params.CNI16Q, Bus: params.MemoryBus,
			Topology: params.TopoTorus, Shards: h, Workload: &wl}
		base := liveHeap()
		r := newRun(cfg, 0, 1500)
		perNode := (liveHeap() - base) / uint64(nodes)
		t.Logf("%d nodes (%dx%d torus): %d B live heap per node", nodes, w, h, perNode)
		if perNode >= perNodeBudget {
			t.Errorf("%d nodes: %d B live heap per node, want < %d", nodes, perNode, perNodeBudget)
		}
		if nodes > 4096 {
			sc := scenario.New()
			r.addOpen(sc)
			tr := r.m.RunUntil(sc, r.endAt)
			var sent uint64
			for _, s := range r.sent {
				sent += s
			}
			if sent == 0 || tr.Counter("net.torus.hop") == 0 {
				t.Errorf("%d nodes: sent %d messages over %d torus hops, want traffic",
					nodes, sent, tr.Counter("net.torus.hop"))
			}
		}
		r.m.Close()
	}
}
