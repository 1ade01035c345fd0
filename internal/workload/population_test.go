package workload

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/params"
	"repro/internal/sim"
)

func popCfg(clients int, zipfS float64) params.Config {
	wl := params.DefaultWorkload()
	wl.Arrival = params.ArrivalClosed
	wl.Clients = clients
	wl.ClientZipfS = zipfS
	return params.Config{Nodes: 16, NI: params.CNI512Q, Bus: params.MemoryBus, Workload: &wl}
}

// TestPopulationDeterministic: the aggregated-population closed loop
// keeps the subsystem's bit-for-bit reproducibility, even at a
// population far beyond what one simulated session per client could carry.
func TestPopulationDeterministic(t *testing.T) {
	t.Parallel()
	cfg := popCfg(100_000, 1.0)
	a := Run(cfg, 10_000, 40_000)
	b := Run(cfg, 10_000, 40_000)
	if a != b {
		t.Errorf("two identical population runs differ:\n  a: %+v\n  b: %+v", a, b)
	}
	if a.Latency.Count() == 0 {
		t.Error("population run recorded no latency samples")
	}
	if a.OfferedMBps != a.GoodputMBps {
		t.Errorf("closed loop should self-limit: offered %v != goodput %v", a.OfferedMBps, a.GoodputMBps)
	}
}

// TestPopulationScalesOfferedLoad: a larger thinking population drives
// more traffic (until the system binds), and a huge population still
// completes — the per-arrival cost is O(log clients), not O(clients).
func TestPopulationScalesOfferedLoad(t *testing.T) {
	t.Parallel()
	run := func(clients int) Report {
		cfg := popCfg(clients, 0)
		// A long think time keeps the small population below the NI's
		// saturation knee, so more clients must mean more goodput.
		cfg.Workload.ThinkCycles = 50_000
		return Run(cfg, 10_000, 40_000)
	}
	small, big := run(8), run(64)
	if big.GoodputMBps <= small.GoodputMBps {
		t.Errorf("64 clients/node should outrun 8: %v <= %v", big.GoodputMBps, small.GoodputMBps)
	}
	huge := Run(popCfg(1_000_000, 0), 5_000, 20_000)
	if huge.Delivered == 0 {
		t.Error("million-client population delivered nothing")
	}
}

// TestClientWeights: the params spec renders to the right vectors.
func TestClientWeights(t *testing.T) {
	t.Parallel()
	wl := params.Workload{}
	u := ClientWeights(wl, 4)
	for i, w := range u {
		if w != 1 {
			t.Errorf("uniform weight[%d] = %v, want 1", i, w)
		}
	}
	wl.ClientZipfS = 1.0
	z := ClientWeights(wl, 4)
	for i := 1; i < len(z); i++ {
		if z[i] >= z[i-1] {
			t.Errorf("zipf weights must decrease: w[%d]=%v >= w[%d]=%v", i, z[i], i-1, z[i-1])
		}
	}
	wl.ClientWeights = []float64{3, 1}
	tiled := ClientWeights(wl, 5)
	want := []float64{3, 1, 3, 1, 3}
	for i := range want {
		if tiled[i] != want[i] {
			t.Errorf("tiled weight[%d] = %v, want %v (explicit vector must override zipf)", i, tiled[i], want[i])
		}
	}
}

// TestPopulationWeightAccounting exercises the arrival process
// directly: size-biased draws conserve weight, an exhausted population
// parks at Forever, and Return restarts it.
func TestPopulationWeightAccounting(t *testing.T) {
	t.Parallel()
	set := NewClientSet([]float64{5, 3, 2})
	if set.Clients() != 3 || set.TotalWeight() != 10 {
		t.Fatalf("set shape wrong: %d clients, total %v", set.Clients(), set.TotalWeight())
	}
	p := set.Population(1000, apps.NewRand(42), 0)
	var taken float64
	for p.NextAt() != sim.Forever {
		if taken >= set.TotalWeight() {
			break
		}
		taken += p.Take()
	}
	if p.thinkingW > 1e-9 {
		// Draws are size-biased from the full population, so the pool
		// drains to zero only once the cumulative takes cover it; the
		// invariant that matters is the clamp and the Forever park.
		t.Logf("thinking weight after drain: %v", p.thinkingW)
	}
	if p.NextAt() != sim.Forever {
		t.Fatalf("fully issued population should park at Forever, next at %v", p.NextAt())
	}
	p.Return(5, 12345)
	if p.NextAt() == sim.Forever || p.NextAt() <= 12345 {
		t.Errorf("Return must restart arrivals after now, next at %v", p.NextAt())
	}
	if p.thinkingW > set.TotalWeight() {
		t.Errorf("thinking weight %v exceeds total %v", p.thinkingW, set.TotalWeight())
	}
}

// TestPopulationZipfSkewsIssuers: with a strong skew the hottest
// client's weight dominates draws, so the mean issued weight is well
// above the population mean.
func TestPopulationZipfSkewsIssuers(t *testing.T) {
	t.Parallel()
	weights := ClientWeights(params.Workload{ClientZipfS: 1.2}, 1000)
	set := NewClientSet(weights)
	p := set.Population(1e12, apps.NewRand(7), 0) // think huge: pool never empties
	var sum float64
	const draws = 4096
	for i := 0; i < draws; i++ {
		w := p.Take()
		sum += w
		p.Return(w, p.NextAt())
	}
	mean := set.TotalWeight() / float64(set.Clients())
	if sum/draws < 4*mean {
		t.Errorf("size-biased zipf draws mean %v, want well above population mean %v", sum/draws, mean)
	}
}

// TestPopulationArrivalPathZeroAlloc pins Take/Return/NextAt — the
// steady-state population arrival path — at zero allocations,
// extending the generator alloc sweep to the population model.
func TestPopulationArrivalPathZeroAlloc(t *testing.T) {
	set := NewClientSet(ClientWeights(params.Workload{ClientZipfS: 0.9}, 100_000))
	p := set.Population(2000, apps.NewRand(3), 0)
	var now sim.Time
	allocs := testing.AllocsPerRun(1000, func() {
		now += 100
		w := p.Take()
		p.Return(w, now)
		_ = p.NextAt()
	})
	if allocs != 0 {
		t.Errorf("population arrival path allocates %.1f objects/op, want 0", allocs)
	}
}
