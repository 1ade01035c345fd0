package cache

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/params"
	"repro/internal/sim"
)

// rig is a two-processor, one-memory-bus test machine: the "local
// cachable queue" configuration of the paper's Figure 2.
type rig struct {
	eng  *sim.Engine
	st   *sim.Stats
	fab  *bus.Fabric
	mem  *Memory
	c0   *Cache
	c1   *Cache
	done bool
}

func newRig(t *testing.T, cacheBytes int) *rig {
	t.Helper()
	e := sim.NewEngine()
	st := sim.NewStats()
	f := bus.NewFabric(e, st, "n0", false)
	m := NewMemory(f, "n0.mem")
	f.AddRegion(bus.Region{Name: "dram", Base: 0, Size: 1 << 30, Home: m, Loc: params.MemoryBus, Cachable: true})
	c0 := New(e, st, f, "n0.c0", cacheBytes)
	c1 := New(e, st, f, "n0.c1", cacheBytes)
	return &rig{eng: e, st: st, fab: f, mem: m, c0: c0, c1: c1}
}

// run executes body as a simulated process and drains the engine.
func (r *rig) run(body func(p *sim.Process)) {
	r.eng.Spawn("test", body)
	r.eng.RunAll()
}

func TestLoadMissFillsExclusive(t *testing.T) {
	r := newRig(t, 4096)
	r.run(func(p *sim.Process) {
		start := p.Now()
		r.c0.Load(p, 0x100)
		if got := p.Now() - start; got != params.BlockMemBus {
			t.Errorf("cold miss took %d cycles, want %d", got, params.BlockMemBus)
		}
	})
	if s := r.c0.StateOf(0x100); s != Exclusive {
		t.Fatalf("state = %v, want E", s)
	}
}

func TestLoadHitCostsOneCycle(t *testing.T) {
	r := newRig(t, 4096)
	r.run(func(p *sim.Process) {
		r.c0.Load(p, 0x100)
		start := p.Now()
		r.c0.Load(p, 0x108) // same block
		if got := p.Now() - start; got != params.HitCycles {
			t.Errorf("hit took %d cycles, want %d", got, params.HitCycles)
		}
	})
	if r.st.Get("n0.c0.load.hit") != 1 || r.st.Get("n0.c0.load.miss") != 1 {
		t.Fatalf("hit/miss counters wrong: %s", r.st)
	}
}

func TestReadSharingDowngradesToShared(t *testing.T) {
	r := newRig(t, 4096)
	r.run(func(p *sim.Process) {
		r.c0.Load(p, 0x200) // c0: E
		r.c1.Load(p, 0x200) // c0 supplies, E->S; c1: S
	})
	if s := r.c0.StateOf(0x200); s != Shared {
		t.Fatalf("c0 state = %v, want S", s)
	}
	if s := r.c1.StateOf(0x200); s != Shared {
		t.Fatalf("c1 state = %v, want S", s)
	}
}

func TestStoreUpgradesAndInvalidates(t *testing.T) {
	r := newRig(t, 4096)
	r.run(func(p *sim.Process) {
		r.c0.Load(p, 0x300)
		r.c1.Load(p, 0x300)
		r.c0.Store(p, 0x300) // CRI: invalidates c1
	})
	if s := r.c0.StateOf(0x300); s != Modified {
		t.Fatalf("c0 state = %v, want M", s)
	}
	if s := r.c1.StateOf(0x300); s != Invalid {
		t.Fatalf("c1 state = %v, want I", s)
	}
}

func TestStoreToExclusiveIsSilent(t *testing.T) {
	r := newRig(t, 4096)
	r.run(func(p *sim.Process) {
		r.c0.Load(p, 0x400) // E
		start := p.Now()
		r.c0.Store(p, 0x400)
		if got := p.Now() - start; got != params.HitCycles {
			t.Errorf("E->M store took %d cycles, want %d", got, params.HitCycles)
		}
	})
	if s := r.c0.StateOf(0x400); s != Modified {
		t.Fatalf("state = %v, want M", s)
	}
}

func TestDirtySharingMakesOwned(t *testing.T) {
	r := newRig(t, 4096)
	r.run(func(p *sim.Process) {
		r.c0.Store(p, 0x500) // c0: M
		r.c1.Load(p, 0x500)  // c0 supplies, M->O; c1: S
	})
	if s := r.c0.StateOf(0x500); s != Owned {
		t.Fatalf("c0 state = %v, want O", s)
	}
	if s := r.c1.StateOf(0x500); s != Shared {
		t.Fatalf("c1 state = %v, want S", s)
	}
}

func TestStoreToOwnedIssuesCRI(t *testing.T) {
	r := newRig(t, 4096)
	r.run(func(p *sim.Process) {
		r.c0.Store(p, 0x600)
		r.c1.Load(p, 0x600) // c0: O, c1: S
		start := p.Now()
		r.c0.Store(p, 0x600) // O is not writable: CRI
		if got := p.Now() - start; got != params.BlockMemBus {
			t.Errorf("O store took %d cycles, want %d (full CRI)", got, params.BlockMemBus)
		}
	})
	if s := r.c1.StateOf(0x600); s != Invalid {
		t.Fatalf("c1 state = %v, want I", s)
	}
}

func TestEvictionWritesBackDirty(t *testing.T) {
	r := newRig(t, 4096) // 64 lines
	conflict := uint64(4096)
	r.run(func(p *sim.Process) {
		r.c0.Store(p, 0x0)     // M in line 0
		r.c0.Load(p, conflict) // conflicts with line 0: WB + CR
	})
	if r.st.Get("n0.c0.writeback") != 1 {
		t.Fatalf("writebacks = %d, want 1", r.st.Get("n0.c0.writeback"))
	}
	if s := r.c0.StateOf(0x0); s != Invalid {
		t.Fatalf("evicted block state = %v, want I", s)
	}
	if s := r.c0.StateOf(conflict); s != Exclusive {
		t.Fatalf("new block state = %v, want E", s)
	}
}

func TestCleanEvictionSilent(t *testing.T) {
	r := newRig(t, 4096)
	r.run(func(p *sim.Process) {
		r.c0.Load(p, 0x0)
		r.c0.Load(p, 4096)
	})
	if r.st.Get("n0.c0.writeback") != 0 {
		t.Fatalf("writebacks = %d, want 0", r.st.Get("n0.c0.writeback"))
	}
}

func TestSnarfingCapturesWriteback(t *testing.T) {
	r := newRig(t, 4096)
	r.c1.Snarf = true
	r.run(func(p *sim.Process) {
		// c1 reads the block, then c0 takes ownership (invalidating
		// c1 but leaving the tag in the frame), dirties it, and evicts.
		r.c1.Load(p, 0x800)
		r.c0.Store(p, 0x800)
		if s := r.c1.StateOf(0x800); s != Invalid {
			t.Fatalf("c1 state = %v, want I before snarf", s)
		}
		r.c0.Load(p, 0x800+4096) // evict dirty block: WB on the bus
	})
	if s := r.c1.StateOf(0x800); s != Shared {
		t.Fatalf("c1 state = %v, want S after snarf", s)
	}
	if r.st.Get("n0.c1.snarf") != 1 {
		t.Fatalf("snarf counter = %d, want 1", r.st.Get("n0.c1.snarf"))
	}
}

// TestLocalQueueBandwidthCalibration checks the DESIGN.md calibration:
// a producer/consumer pair moving blocks through cachable memory costs
// one CRI plus one CR per block (~84 cycles => ~152 MB/s at 200 MHz),
// approximating the paper's 144 MB/s normalisation bound.
func TestLocalQueueBandwidthCalibration(t *testing.T) {
	r := newRig(t, 256*1024)
	const blocks = 64
	var start, end sim.Time
	r.run(func(p *sim.Process) {
		// Warm up one round so steady-state states (sender O, receiver S).
		for b := uint64(0); b < blocks; b++ {
			r.c0.Store(p, b*64)
			r.c1.Load(p, b*64)
		}
		start = p.Now()
		for b := uint64(0); b < blocks; b++ {
			r.c0.Store(p, b*64) // CRI 42
			r.c1.Load(p, b*64)  // CR 42, supplied cache-to-cache
		}
		end = p.Now()
	})
	perBlock := float64(end-start) / blocks
	if perBlock < 80 || perBlock > 92 {
		t.Fatalf("per-block cost = %.1f cycles, want ~84 (calibration)", perBlock)
	}
	mbps := 64.0 / perBlock * params.CPUMHz
	if mbps < 135 || mbps > 165 {
		t.Fatalf("local queue bandwidth = %.0f MB/s, want ~144-152", mbps)
	}
}

func TestBusOccupancyTracked(t *testing.T) {
	r := newRig(t, 4096)
	r.run(func(p *sim.Process) {
		r.c0.Load(p, 0x0) // one 42-cycle transaction
	})
	if got := r.st.Busy("n0.membus").Total(); got != params.BlockMemBus {
		t.Fatalf("membus busy = %d, want %d", got, params.BlockMemBus)
	}
}

func TestBusContentionSerialises(t *testing.T) {
	r := newRig(t, 4096)
	var t0, t1 sim.Time
	r.eng.Spawn("p0", func(p *sim.Process) {
		r.c0.Load(p, 0x0)
		t0 = p.Now()
	})
	r.eng.Spawn("p1", func(p *sim.Process) {
		r.c1.Load(p, 0x1000)
		t1 = p.Now()
	})
	r.eng.RunAll()
	if t0 != params.BlockMemBus {
		t.Fatalf("first transaction finished at %d, want %d", t0, params.BlockMemBus)
	}
	if t1 != 2*params.BlockMemBus {
		t.Fatalf("second transaction finished at %d, want %d (serialised)", t1, 2*params.BlockMemBus)
	}
}

func TestCacheSizeMustBePowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two size")
		}
	}()
	r := newRig(t, 4096)
	New(r.eng, r.st, r.fab, "bad", 3*64)
}
