package workload

import (
	"math"
	"runtime"
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

// refClientWeights is the per-client weight vector the population
// spec stands for: the tiled ClientWeights vector when set, else
// Zipf(ClientZipfS) weights (client 0 hottest), else unit weights.
// ClientSet once materialised it; it lives on as the reference the
// vector-free set is checked against.
func refClientWeights(wl params.Workload, clients int) []float64 {
	w := make([]float64, clients)
	for i := range w {
		switch {
		case len(wl.ClientWeights) > 0:
			w[i] = wl.ClientWeights[i%len(wl.ClientWeights)]
		case wl.ClientZipfS > 0:
			w[i] = math.Pow(float64(i+1), -wl.ClientZipfS)
		default:
			w[i] = 1
		}
	}
	return w
}

// refPopulation is the vector-backed population: explicit weights,
// their CDF, and the arrival process over them, as Population ran
// before ClientSet stopped storing weights.
type refPopulation struct {
	weights, cdf []float64
	total, think float64
	rng          *apps.Rand
	thinkingW    float64
	nextAt       sim.Time
}

func newRefPopulation(weights []float64, think float64, rng *apps.Rand, now sim.Time) *refPopulation {
	p := &refPopulation{weights: weights, cdf: make([]float64, len(weights)), think: think, rng: rng}
	for _, w := range weights {
		p.total += w
	}
	cum := 0.0
	for i, w := range weights {
		cum += w / p.total
		p.cdf[i] = cum
	}
	if n := len(p.cdf); n > 0 {
		p.cdf[n-1] = 1
	}
	p.thinkingW = p.total
	p.schedule(now)
	return p
}

func (p *refPopulation) schedule(now sim.Time) {
	if p.thinkingW <= 0 {
		p.nextAt = sim.Forever
		return
	}
	g := -p.think / p.thinkingW * math.Log(1-p.rng.Float())
	if g < 1 {
		g = 1
	}
	p.nextAt = now + sim.Time(g)
}

func (p *refPopulation) take() float64 {
	u := p.rng.Float()
	lo, hi := 0, len(p.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if p.cdf[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	w := p.weights[lo]
	p.thinkingW -= w
	if p.thinkingW < 0 {
		p.thinkingW = 0
	}
	p.schedule(p.nextAt)
	return w
}

func (p *refPopulation) ret(w float64, now sim.Time) {
	p.thinkingW += w
	if p.thinkingW > p.total {
		p.thinkingW = p.total
	}
	if p.nextAt == sim.Forever {
		p.schedule(now)
	}
}

// TestClientWeights: the params spec renders to the right vectors.
func TestClientWeights(t *testing.T) {
	t.Parallel()
	wl := params.Workload{}
	u := refClientWeights(wl, 4)
	for i, w := range u {
		if w != 1 {
			t.Errorf("uniform weight[%d] = %v, want 1", i, w)
		}
	}
	wl.ClientZipfS = 1.0
	z := refClientWeights(wl, 4)
	for i := 1; i < len(z); i++ {
		if z[i] >= z[i-1] {
			t.Errorf("zipf weights must decrease: w[%d]=%v >= w[%d]=%v", i, z[i], i-1, z[i-1])
		}
	}
	wl.ClientWeights = []float64{3, 1}
	tiled := refClientWeights(wl, 5)
	want := []float64{3, 1, 3, 1, 3}
	for i := range want {
		if tiled[i] != want[i] {
			t.Errorf("tiled weight[%d] = %v, want %v (explicit vector must override zipf)", i, tiled[i], want[i])
		}
	}
}

// TestClientSetMatchesVectorReference drives the vector-free set and
// the vector-backed reference through one seeded sequence of Take and
// Return calls: every issued weight, every next arrival and the final
// thinking weight must match bit for bit, so the sets change no RNG
// draw and no output.
func TestClientSetMatchesVectorReference(t *testing.T) {
	t.Parallel()
	for _, c := range []struct {
		name    string
		wl      params.Workload
		clients int
	}{
		{"uniform-1", params.Workload{}, 1},
		{"uniform-7", params.Workload{}, 7},
		{"uniform-62500", params.Workload{}, 62_500},
		{"zipf-0.9", params.Workload{ClientZipfS: 0.9}, 10_000},
		{"zipf-1.2", params.Workload{ClientZipfS: 1.2}, 10_000},
		{"tiled-3-1", params.Workload{ClientWeights: []float64{3, 1}}, 5},
	} {
		set := NewClientSet(c.wl, c.clients)
		if set.Clients() != c.clients {
			t.Errorf("%s: Clients() = %d, want %d", c.name, set.Clients(), c.clients)
		}
		const think = 5000
		p := set.Population(think, apps.NewRand(99), 0)
		ref := newRefPopulation(refClientWeights(c.wl, c.clients), think, apps.NewRand(99), 0)
		if set.total != ref.total || p.NextAt() != ref.nextAt {
			t.Fatalf("%s: built total %v next %d, reference %v next %d",
				c.name, set.total, p.NextAt(), ref.total, ref.nextAt)
		}
		// The driver decides from the set's own state, so both sides
		// see one call sequence; issued weights return oldest first.
		driver := apps.NewRand(7)
		var held sim.FIFO[float64]
		var now sim.Time
		for i := 0; i < 20_000; i++ {
			if p.NextAt() != sim.Forever && (held.Len() == 0 || driver.Float() < 0.5) {
				now = p.NextAt()
				w, rw := p.Take(), ref.take()
				if w != rw {
					t.Fatalf("%s: call %d: Take = %v, reference %v", c.name, i, w, rw)
				}
				held.Push(w)
			} else {
				now += sim.Time(driver.Intn(2 * think))
				w := held.Pop()
				p.Return(w, now)
				ref.ret(w, now)
			}
			if p.NextAt() != ref.nextAt {
				t.Fatalf("%s: call %d: NextAt = %d, reference %d", c.name, i, p.NextAt(), ref.nextAt)
			}
		}
		if p.thinkingW != ref.thinkingW {
			t.Errorf("%s: final thinking weight %v, reference %v", c.name, p.thinkingW, ref.thinkingW)
		}
	}
}

// TestClientSetMemory pins the per-client cost of a population: a
// uniform set stores nothing per client and a Zipf set only its
// 8-byte CDF entry. 2^20 clients make the CDF whole allocator pages,
// and the least of three builds drops the runtime's own background
// allocations from the count.
func TestClientSetMemory(t *testing.T) {
	const clients = 1 << 20
	built := func(wl params.Workload) uint64 {
		least := ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			set := NewClientSet(wl, clients)
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(set)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	if got := built(params.Workload{}); got >= 1024 {
		t.Errorf("1M-client uniform set allocates %d B, want under 1 KB", got)
	}
	if got, max := built(params.Workload{ClientZipfS: 0.9}), uint64(8*clients+1024); got > max {
		t.Errorf("1M-client Zipf set allocates %d B, want at most %d (8 B per client + 1 KB)", got, max)
	}
}

// TestPopulationWeightAccounting exercises the arrival process
// directly: size-biased draws conserve weight, an exhausted population
// parks at Forever, and Return restarts it.
func TestPopulationWeightAccounting(t *testing.T) {
	t.Parallel()
	set := NewClientSet(params.Workload{ClientWeights: []float64{5, 3, 2}}, 3)
	if set.Clients() != 3 || set.total != 10 {
		t.Fatalf("set shape wrong: %d clients, total %v", set.Clients(), set.total)
	}
	p := set.Population(1000, apps.NewRand(42), 0)
	var taken float64
	for p.NextAt() != sim.Forever {
		if taken >= set.total {
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
	if p.thinkingW > set.total {
		t.Errorf("thinking weight %v exceeds total %v", p.thinkingW, set.total)
	}
}

// TestPopulationZipfSkewsIssuers: with a strong skew the hottest
// client's weight dominates draws, so the mean issued weight is well
// above the population mean.
func TestPopulationZipfSkewsIssuers(t *testing.T) {
	t.Parallel()
	set := NewClientSet(params.Workload{ClientZipfS: 1.2}, 1000)
	p := set.Population(1e12, apps.NewRand(7), 0) // think huge: pool never empties
	var sum float64
	const draws = 4096
	for i := 0; i < draws; i++ {
		w := p.Take()
		sum += w
		p.Return(w, p.NextAt())
	}
	mean := set.total / float64(set.Clients())
	if sum/draws < 4*mean {
		t.Errorf("size-biased zipf draws mean %v, want well above population mean %v", sum/draws, mean)
	}
}

// TestPopulationArrivalPathZeroAlloc pins Take/Return/NextAt — the
// steady-state population arrival path — at zero allocations,
// extending the generator alloc sweep to the population model.
func TestPopulationArrivalPathZeroAlloc(t *testing.T) {
	set := NewClientSet(params.Workload{ClientZipfS: 0.9}, 100_000)
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
