package workload

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/params"
)

var update = flag.Bool("update", false, "rewrite testdata/transit_pin.golden from the current model")

// transitFaults are the two fault setups the transit pin runs under.
// "degrade-close" is a latency-only degrade window long enough that
// messages sent inside it are still in flight when it closes, so the
// fast messages sent after it overtake them (per flat transit, and per
// torus link flight: 64x a hop outlasts a link's occupancy). "mixed"
// adds drops, duplicates and delays with the transport on, so delayed
// frames and duplicate copies land out of order at the fault edge.
var transitFaults = []struct {
	name string
	f    params.Faults
}{
	{"degrade-close", params.Faults{
		Seed: 3, DegradeFrom: 3000, DegradeUntil: 6000, DegradeLatencyX: 64,
	}},
	{"mixed", params.Faults{
		Seed: 7, DropProb: 0.02, DupProb: 0.05, DelayProb: 0.08,
		DegradeFrom: 4000, DegradeUntil: 7000, DegradeLatencyX: 8, DegradeBandwidthX: 2,
		Transport: true,
	}},
}

// overtakes counts data frames whose fabric span (admission to
// delivery) ends before that of a frame admitted strictly earlier on
// the same (src, dst) pair, from a Chrome export of the lifecycle
// rings. A pair's frames share a route, so on either fabric an
// overtake is a frame that landed ahead of one sent before it.
func overtakes(t *testing.T, chrome []byte) int {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Ts   uint64 `json:"ts"`
			Dur  uint64 `json:"dur"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome, &doc); err != nil {
		t.Fatalf("trace decode: %v", err)
	}
	type span struct{ start, end uint64 }
	pairs := map[[2]int][]span{}
	for _, ev := range doc.TraceEvents {
		var id, frag, src, dst int
		if ev.Ph != "X" {
			continue
		}
		if _, err := fmt.Sscanf(ev.Name, "m m%d.%d n%d>n%d", &id, &frag, &src, &dst); err != nil {
			continue
		}
		k := [2]int{src, dst}
		pairs[k] = append(pairs[k], span{ev.Ts, ev.Ts + ev.Dur})
	}
	n := 0
	for _, spans := range pairs {
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
		// latest is the latest end among frames admitted strictly
		// before the current admission time.
		var latest, groupLatest uint64
		for i, s := range spans {
			if i > 0 && s.start != spans[i-1].start {
				latest = max(latest, groupLatest)
			}
			if s.end < latest {
				n++
			}
			groupLatest = max(groupLatest, s.end)
		}
	}
	return n
}

// TestTransitOrderPinned pins the full workload report of every timed
// path through both fabrics: flat-16, torus-16 and torus-64 at Shards
// 0, 1 and 4 (torus-64 runs sharded at 1 and 4), under both
// transitFaults setups. The golden was generated before the fabrics'
// fault-mode transit paths were folded into one arrival-ordered queue
// and must stay byte-identical; regenerate it only for a deliberate
// timing-model change. Each fabric must also show a later-sent frame
// overtaking an earlier one under "degrade-close", so the pin covers
// out-of-order arrivals and not just FIFO ones.
func TestTransitOrderPinned(t *testing.T) {
	t.Parallel()
	wl := params.DefaultWorkload()
	wl.OfferedMBps = 20
	var out strings.Builder
	overtaken := map[params.Topology]int{}
	for _, fab := range []struct {
		topo  params.Topology
		nodes int
	}{{params.TopoFlat, 16}, {params.TopoTorus, 16}, {params.TopoTorus, 64}} {
		for _, shards := range []int{0, 1, 4} {
			for _, fs := range transitFaults {
				cfg := params.Config{
					Nodes: fab.nodes, NI: params.CNI16Q, Bus: params.MemoryBus,
					Topology: fab.topo, Shards: shards, Workload: &wl, Faults: fs.f,
					Trace: params.Trace{Enabled: true, RingSize: 1 << 16},
				}
				run := runTraced(t, cfg, 2000, 12_000)
				rep := run.rep
				ov := overtakes(t, run.rings)
				if fs.name == "degrade-close" {
					overtaken[fab.topo] += ov
				}
				full := fmt.Sprintf("%+v", rep)
				fmt.Fprintf(&out, "%v-%d shards=%d %s: sent=%d delivered=%d goodput=%.9g drops=%d retx=%d dupsup=%d dead=%d overtakes=%d\n",
					fab.topo, fab.nodes, shards, fs.name, rep.Sent, rep.Delivered, rep.GoodputMBps,
					rep.Drops, rep.Retransmits, rep.DupSuppressed, rep.Dead, ov)
				fmt.Fprintf(&out, "  latency  %s\n  net      %s\n  recovery %s\n  report sha256 %x\n",
					rep.Latency.String(), rep.NetDelivery.String(), rep.Recovery.String(), sha256.Sum256([]byte(full)))
			}
		}
	}
	for _, topo := range []params.Topology{params.TopoFlat, params.TopoTorus} {
		if overtaken[topo] == 0 {
			t.Errorf("%v: no frame overtook an earlier one under degrade-close; the pin does not cover out-of-order transit", topo)
		}
	}
	path := filepath.Join("testdata", "transit_pin.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("transit pin diverges from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}
