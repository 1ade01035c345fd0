package proc

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/params"
	"repro/internal/sim"
)

// echoDev records register traffic with timestamps.
type echoDev struct {
	eng    *sim.Engine
	regs   map[uint64]uint64
	writes []sim.Time
}

func (d *echoDev) AgentName() string                    { return "dev" }
func (d *echoDev) AgentClass() params.AgentClass        { return params.ClassDevice }
func (d *echoDev) SnoopTx(tx *bus.Tx, h bool) bus.Snoop { return bus.Snoop{} }
func (d *echoDev) RegRead(reg uint64) uint64            { return d.regs[reg] }
func (d *echoDev) RegWrite(reg, val uint64) {
	d.regs[reg] = val
	d.writes = append(d.writes, d.eng.Now())
}

func rig(t *testing.T) (*sim.Engine, *CPU, *echoDev) {
	t.Helper()
	e := sim.NewEngine()
	st := sim.NewStats()
	f := bus.NewFabric(e, st, "t", false)
	mem := cache.NewMemory(f, "mem")
	f.AddRegion(bus.Region{Name: "dram", Base: 0, Size: 1 << 24, Home: mem, Loc: params.MemoryBus, Cachable: true})
	c := cache.New(e, st, f, "c", 4096)
	cpu := New(e, st, f, c, 0, "cpu0")
	dev := &echoDev{eng: e, regs: make(map[uint64]uint64)}
	f.Attach(dev, params.MemoryBus)
	return e, cpu, dev
}

func TestComputeAdvancesTime(t *testing.T) {
	e, cpu, _ := rig(t)
	e.Spawn("t", func(p *sim.Process) {
		start := p.Now()
		cpu.Compute(p, 123)
		if p.Now()-start != 123 {
			t.Errorf("Compute advanced %d, want 123", p.Now()-start)
		}
		cpu.Compute(p, 0) // zero compute is free
		if p.Now()-start != 123 {
			t.Error("Compute(0) advanced time")
		}
	})
	e.RunAll()
	e.Stop()
}

func TestPostedStoreReturnsImmediately(t *testing.T) {
	e, cpu, dev := rig(t)
	e.Spawn("t", func(p *sim.Process) {
		start := p.Now()
		cpu.UncachedStore(p, dev, 8, 1)
		if p.Now()-start != params.HitCycles {
			t.Errorf("posted store stalled %d cycles, want %d", p.Now()-start, params.HitCycles)
		}
	})
	e.RunAll()
	e.Stop()
	if dev.regs[8] != 1 {
		t.Error("store never drained to the device")
	}
}

func TestMembarWaitsForDrain(t *testing.T) {
	e, cpu, dev := rig(t)
	e.Spawn("t", func(p *sim.Process) {
		for i := uint64(0); i < 3; i++ {
			cpu.UncachedStore(p, dev, i, i)
		}
		cpu.Membar(p)
		if len(dev.writes) != 3 {
			t.Errorf("Membar returned with %d of 3 stores drained", len(dev.writes))
		}
	})
	e.RunAll()
	e.Stop()
}

func TestStoreBufferFullStalls(t *testing.T) {
	e, cpu, dev := rig(t)
	e.Spawn("t", func(p *sim.Process) {
		start := p.Now()
		for i := uint64(0); i < uint64(params.StoreBufferDepth)+4; i++ {
			cpu.UncachedStore(p, dev, i, i)
		}
		// The overflowing stores must have waited for bus drains (12
		// cycles each), not completed in issue time alone.
		if p.Now()-start < sim.Time(params.UncStoreMemBus) {
			t.Errorf("overflowing store buffer did not stall (took %d)", p.Now()-start)
		}
	})
	e.RunAll()
	e.Stop()
	if len(dev.writes) != params.StoreBufferDepth+4 {
		t.Errorf("drained %d stores", len(dev.writes))
	}
}

func TestUncachedLoadDrainsStoreBuffer(t *testing.T) {
	e, cpu, dev := rig(t)
	e.Spawn("t", func(p *sim.Process) {
		cpu.UncachedStore(p, dev, 8, 42)
		// TSO device access: the load must observe the prior store.
		if got := cpu.UncachedLoad(p, dev, 8); got != 42 {
			t.Errorf("load = %d, want 42 (store buffer bypassed?)", got)
		}
	})
	e.RunAll()
	e.Stop()
}

func TestLoadStoreRangeTouchesEveryWord(t *testing.T) {
	e, cpu, _ := rig(t)
	st := cpu.stats
	e.Spawn("t", func(p *sim.Process) {
		cpu.StoreRange(p, 0, 64) // one block: 1 miss + 7 hits
		cpu.LoadRange(p, 0, 64)  // 8 hits
	})
	e.RunAll()
	e.Stop()
	if st.Get("c.store.miss") != 1 || st.Get("c.store.hit") != 7 {
		t.Errorf("stores: miss=%d hit=%d", st.Get("c.store.miss"), st.Get("c.store.hit"))
	}
	if st.Get("c.load.hit") != 8 {
		t.Errorf("loads: hit=%d", st.Get("c.load.hit"))
	}
}
