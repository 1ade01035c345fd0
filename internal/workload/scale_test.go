package workload

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
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

// stackProbeRun is the -test.run pattern TestStackScale starts its
// fresh test process with; TestStackScaleProbe measures only under it.
const stackProbeRun = "^TestStackScaleProbe$"

// stackPerNodeBudget bounds the goroutine stack memory of the
// scale-1k point, per node, as TestStackScaleProbe measures it with
// the go1.24 linux/amd64 toolchain: 4,416 B per node (three runs of
// three) once the NI engines, store-buffer drain and I/O bridge became
// driven processes and only app processes kept coroutine stacks, plus
// 2% (16,672 B while each node ran five coroutines). Fn events and
// driven steps run on the stacks of parked app processes below
// Engine.next, so a frame that grows on that path shows up here
// multiplied by thousands of processes.
const stackPerNodeBudget = 4416 * 102 / 100

var stackPerNodeLine = regexp.MustCompile(`stack in use: (\d+) B per node`)

// TestStackScale guards the depth of the engine's dispatch path: the
// scale-1k benchmark point (1024-node torus, 32 shards, CNI16Q,
// uniform 64 MB/s per node) must not need more goroutine stack per
// node than before the calendar ring. The measurement runs in a fresh
// test process, because the runtime sizes new goroutine stacks from
// the average it saw at earlier collections, so a process that has
// already run other machines starts every coroutine bigger. It skips,
// before starting that process, under -short, under -race (whose
// instrumentation changes every frame), and on any toolchain or
// architecture but the one the budget is pinned for.
func TestStackScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 1024-node machine in a second test process")
	}
	if raceEnabled {
		t.Skip("the race detector's instrumentation changes every frame")
	}
	if !strings.HasPrefix(runtime.Version(), "go1.24") || runtime.GOARCH != "amd64" {
		t.Skipf("the budget is pinned for go1.24 on amd64; this is %s on %s", runtime.Version(), runtime.GOARCH)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(exe, "-test.run="+stackProbeRun, "-test.v", "-test.count=1").CombinedOutput()
	if err != nil {
		t.Fatalf("probe process: %v\n%s", err, out)
	}
	m := stackPerNodeLine.FindSubmatch(out)
	if m == nil {
		t.Fatalf("probe process printed no measurement:\n%s", out)
	}
	perNode, _ := strconv.Atoi(string(m[1]))
	t.Logf("scale-1k point: %d B of goroutine stack per node (budget %d)", perNode, stackPerNodeBudget)
	if perNode > stackPerNodeBudget {
		t.Errorf("%d B of goroutine stack per node, want <= %d: a frame on the dispatch path grew", perNode, stackPerNodeBudget)
	}
}

// TestStackScaleProbe is TestStackScale's measurement. It runs only as
// the first machine of the fresh process TestStackScale starts: one
// P, so no epoch workers, and no collection during the run, so no
// stack shrinks and StackInuse at the end is its peak.
func TestStackScaleProbe(t *testing.T) {
	if flag.Lookup("test.run").Value.String() != stackProbeRun {
		t.Skip("measures only in the fresh process TestStackScale starts")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const nodes = 1024
	wl := params.DefaultWorkload()
	wl.OfferedMBps = 64
	wl.ZipfS = 0
	cfg := params.Config{Nodes: nodes, NI: params.CNI16Q, Bus: params.MemoryBus,
		Topology: params.TopoTorus, Shards: 32, Workload: &wl}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r := newRun(cfg, 2000, 2000)
	defer r.m.Close()
	sc := scenario.New()
	r.addOpen(sc)
	r.m.RunUntil(sc, r.endAt)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Printf("stack in use: %d B per node\n", ms.StackInuse/nodes)
}
