package dcn

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/params"
	"repro/internal/workload"
)

func rpcCfg(topo params.Topology) params.Config {
	return params.Config{Nodes: 16, NI: params.CNI512Q, Bus: params.MemoryBus, Topology: topo}
}

// quickSpec is a small population at moderate load, sized so a short
// window carries a few hundred calls.
func quickSpec() RPCSpec {
	s := DefaultRPCSpec()
	s.Clients = 10_000
	s.ThinkCycles = 10_000_000
	return s
}

// TestRPCDeterministic pins the core contract: same seed, same bytes,
// across both fabrics.
func TestRPCDeterministic(t *testing.T) {
	t.Parallel()
	for _, topo := range []params.Topology{params.TopoFlat, params.TopoTorus} {
		a, err := RunRPC(rpcCfg(topo), quickSpec(), 20_000, 200_000)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunRPC(rpcCfg(topo), quickSpec(), 20_000, 200_000)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%v: two identical RPC runs differ:\n  a: %+v\n  b: %+v", topo, a, b)
		}
		if a.Completed == 0 || a.Latency.Count() == 0 {
			t.Errorf("%v: no calls completed (report %+v)", topo, a)
		}
	}
}

// TestRPCPopulationSetsShared: the client population spreads as
// evenly as it divides, every node keeps at least one client, and
// nodes of equal client count share one read-only set — at most two
// sets per machine, whatever the client count.
func TestRPCPopulationSetsShared(t *testing.T) {
	t.Parallel()
	for _, c := range []struct{ clients, nodes, wantSets int }{
		{1_000_000, 16, 1},
		{1_000_003, 16, 2},
		{5, 16, 1}, // 5 nodes of one client, 11 clamped up to one
	} {
		spec := quickSpec()
		spec.Clients, spec.ClientZipfS = c.clients, 0.9
		sets := nodeClientSets(spec, c.nodes)
		distinct := map[*workload.ClientSet]bool{}
		total := 0
		for id, s := range sets {
			distinct[s] = true
			total += s.Clients()
			want := c.clients / c.nodes
			if id < c.clients%c.nodes {
				want++
			}
			if want = max(want, 1); s.Clients() != want {
				t.Errorf("%d clients: node %d holds %d, want %d", c.clients, id, s.Clients(), want)
			}
		}
		if len(distinct) != c.wantSets {
			t.Errorf("%d clients on %d nodes: %d distinct sets, want %d", c.clients, c.nodes, len(distinct), c.wantSets)
		}
		if c.clients >= c.nodes && total != c.clients {
			t.Errorf("%d clients: sets hold %d in total", c.clients, total)
		}
	}
}

// TestRPCSeedMatters guards against the seed being ignored.
func TestRPCSeedMatters(t *testing.T) {
	t.Parallel()
	a, _ := RunRPC(rpcCfg(params.TopoFlat), quickSpec(), 20_000, 200_000)
	s2 := quickSpec()
	s2.Seed = 99
	b, _ := RunRPC(rpcCfg(params.TopoFlat), s2, 20_000, 200_000)
	if a == b {
		t.Fatal("different seeds produced identical RPC runs")
	}
}

// TestRPCStragglerGrowsWithFanout: waiting for the slowest of k
// magnifies the tail — fan-out 1 has no join spread at all, fan-out 8
// a strictly positive one.
func TestRPCStragglerGrowsWithFanout(t *testing.T) {
	t.Parallel()
	run := func(k int) RPCReport {
		s := quickSpec()
		s.Tiers[0].Fanout = k
		rep, err := RunRPC(rpcCfg(params.TopoFlat), s, 20_000, 200_000)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	one, eight := run(1), run(8)
	if one.Straggler.Max() != 0 {
		t.Errorf("fan-out 1 join spread must be zero, max %d", one.Straggler.Max())
	}
	if eight.Straggler.Quantile(0.99) <= 0 {
		t.Errorf("fan-out 8 join spread should be positive, p99 %d", eight.Straggler.Quantile(0.99))
	}
	if eight.Latency.Quantile(0.99) <= one.Latency.Quantile(0.99) {
		t.Errorf("fan-out 8 p99 %d should exceed fan-out 1 p99 %d",
			eight.Latency.Quantile(0.99), one.Latency.Quantile(0.99))
	}
}

// TestRPCMultiTierFansOut: a two-tier call multiplies sub-requests
// and still joins correctly.
func TestRPCMultiTierFansOut(t *testing.T) {
	t.Parallel()
	s := quickSpec()
	s.Tiers = []Tier{
		{Fanout: 2, ServiceCycles: 300, ReqBytes: 128, RepBytes: 256},
		{Fanout: 3, ServiceCycles: 300, ReqBytes: 96, RepBytes: 192},
	}
	rep, err := RunRPC(rpcCfg(params.TopoFlat), s, 20_000, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed == 0 {
		t.Fatal("no two-tier calls completed")
	}
	// Every issued call fans 2 tier-0 legs, each of which fans 3 more.
	// Hedges are off, so the fan-out counter is exact for issued work
	// (trailing calls may still be mid-flight at the horizon).
	if rep.Issued > 0 && rep.Hedges != 0 {
		t.Errorf("hedges fired with Hedge=0: %d", rep.Hedges)
	}
}

// TestRPCHedgingFires: eligible stragglers get duplicated, first
// reply wins, and the run stays deterministic.
func TestRPCHedgingFires(t *testing.T) {
	t.Parallel()
	s := quickSpec()
	s.Hedge = 0.9
	s.HedgeAfterCycles = 2_000
	s.Tiers[0].ServiceCycles = 3_000 // service slow enough to trip the trigger
	a, err := RunRPC(rpcCfg(params.TopoFlat), s, 20_000, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hedges == 0 {
		t.Fatal("no hedges fired despite 0.9 eligibility and a tight trigger")
	}
	if a.HedgeWins > a.Hedges {
		t.Errorf("hedge wins %d exceed hedges %d", a.HedgeWins, a.Hedges)
	}
	b, _ := RunRPC(rpcCfg(params.TopoFlat), s, 20_000, 200_000)
	if a != b {
		t.Error("hedged runs are not deterministic")
	}
}

// TestRPCOverloadQueues: a tight inflight cap under heavy offered
// load queues arrivals and goodput falls below offered.
func TestRPCOverloadQueues(t *testing.T) {
	t.Parallel()
	s := quickSpec()
	s.ThinkCycles = 100_000 // ~100x the moderate arrival rate
	s.MaxInflight = 2
	rep, err := RunRPC(rpcCfg(params.TopoFlat), s, 20_000, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queued == 0 {
		t.Error("overload with MaxInflight=2 queued nothing")
	}
	if rep.GoodputKRPS >= rep.OfferedKRPS {
		t.Errorf("goodput %v should fall below offered %v under overload", rep.GoodputKRPS, rep.OfferedKRPS)
	}
}

// TestIncastSpec: the storage preset is a valid fan-in shape with
// bulk replies.
func TestIncastSpec(t *testing.T) {
	t.Parallel()
	s := IncastSpec(8, 4096)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Tiers[0].Fanout != 8 || s.Tiers[0].RepBytes != 4096 || s.Tiers[0].ReqBytes >= s.Tiers[0].RepBytes {
		t.Errorf("incast shape wrong: %+v", s.Tiers[0])
	}
}

// TestRPCValidation: malformed specs are rejected with the PR 3/5
// style messages.
func TestRPCValidation(t *testing.T) {
	t.Parallel()
	base := DefaultRPCSpec()
	bad := []func(*RPCSpec){
		func(s *RPCSpec) { s.Clients = 0 },
		func(s *RPCSpec) { s.ThinkCycles = 0 },
		func(s *RPCSpec) { s.Tiers = nil },
		func(s *RPCSpec) { s.Tiers[0].Fanout = 0 },
		func(s *RPCSpec) { s.Hedge = 1 },
		func(s *RPCSpec) { s.Hedge = -0.1 },
		func(s *RPCSpec) { s.Hedge = 0.5; s.HedgeAfterCycles = 0 },
		func(s *RPCSpec) { s.MaxInflight = 0 },
		func(s *RPCSpec) { s.ClientZipfS = -1 },
	}
	for i, mutate := range bad {
		s := base
		s.Tiers = append([]Tier{}, base.Tiers...)
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: bad spec validated: %+v", i, s)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("default spec invalid: %v", err)
	}
}

// TestCollectiveSchedules: every schedule completes on 16 nodes with
// the right step count and traffic volume.
func TestCollectiveSchedules(t *testing.T) {
	t.Parallel()
	want := map[Schedule]struct {
		steps int
		msgs  uint64
	}{
		RingAllreduce: {steps: 30, msgs: 16 * 30},
		RDAllreduce:   {steps: 4, msgs: 16 * 4},
		Alltoall:      {steps: 15, msgs: 16 * 15},
		Broadcast:     {steps: 4, msgs: 15},
	}
	for _, sch := range Schedules() {
		rep, err := RunCollective(rpcCfg(params.TopoTorus), CollectiveSpec{Schedule: sch, Bytes: 16 * 1024})
		if err != nil {
			t.Fatalf("%s: %v", sch, err)
		}
		w := want[sch]
		if rep.Steps != w.steps {
			t.Errorf("%s: %d steps, want %d", sch, rep.Steps, w.steps)
		}
		if rep.Msgs != w.msgs {
			t.Errorf("%s: %d msgs, want %d", sch, rep.Msgs, w.msgs)
		}
		if rep.CompletionCycles <= 0 {
			t.Errorf("%s: completion %d, want > 0", sch, rep.CompletionCycles)
		}
		if len(rep.PerStep) == 0 {
			t.Errorf("%s: no per-step stats", sch)
		}
		for _, st := range rep.PerStep {
			if st.Skew != st.MaxEnd-st.MinEnd || st.Skew < 0 {
				t.Errorf("%s step %d: inconsistent skew %+v", sch, st.Step, st)
			}
		}
	}
}

// TestCollectiveDeterministic: byte-identical reports across runs
// (JSON compared, PerStep included).
func TestCollectiveDeterministic(t *testing.T) {
	t.Parallel()
	run := func() CollectiveReport {
		rep, err := RunCollective(rpcCfg(params.TopoTorus), DefaultCollectiveSpec())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		t.Errorf("collective runs differ:\n  a: %s\n  b: %s", aj, bj)
	}
}

// TestCollectiveRingChunking: the ring moves 1/n chunks, so its moved
// bytes are 2(n-1)/n of the vector per node.
func TestCollectiveRingChunking(t *testing.T) {
	t.Parallel()
	bytes := 16 * 1024
	rep, err := RunCollective(rpcCfg(params.TopoFlat), CollectiveSpec{Schedule: RingAllreduce, Bytes: bytes})
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := uint64(16 * 30 * (bytes / 16))
	if rep.MovedBytes != wantBytes {
		t.Errorf("ring moved %d bytes, want %d", rep.MovedBytes, wantBytes)
	}
}

// TestParseSchedule: typos list the valid values.
func TestParseSchedule(t *testing.T) {
	t.Parallel()
	if _, err := ParseSchedule("ring-allreduce"); err != nil {
		t.Fatal(err)
	}
	_, err := ParseSchedule("ring")
	if err == nil {
		t.Fatal("typo accepted")
	}
	for _, sch := range Schedules() {
		if !strings.Contains(err.Error(), string(sch)) {
			t.Errorf("error %q should list %q", err, sch)
		}
	}
}
