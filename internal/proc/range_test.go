package proc

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/params"
	"repro/internal/sim"
)

// ranger issues one load or store range on cpu.
type ranger func(cpu *CPU, p *sim.Process, addr uint64, bytes int, store bool)

// probed is the range path under test: LoadRange and StoreRange, whose
// hit words run as engine probes.
func probed(cpu *CPU, p *sim.Process, addr uint64, bytes int, store bool) {
	if store {
		cpu.StoreRange(p, addr, bytes)
	} else {
		cpu.LoadRange(p, addr, bytes)
	}
}

// perWord is the reference: one Cache.Load or Cache.Store per 8-byte
// word, each sleeping through its own hit.
func perWord(cpu *CPU, p *sim.Process, addr uint64, bytes int, store bool) {
	for off := 0; off < bytes; off += 8 {
		if store {
			cpu.cache.Store(p, addr+uint64(off))
		} else {
			cpu.cache.Load(p, addr+uint64(off))
		}
	}
}

// pair is a two-CPU machine on one memory bus: cpus[1] is the other
// agent whose transactions snoop cpus[0]'s cache.
type pair struct {
	e    *sim.Engine
	st   *sim.Stats
	f    *bus.Fabric
	cpus [2]*CPU
	log  []string // "process cycle what", one line per returned range and finish
}

func newPair() *pair {
	e := sim.NewEngine()
	st := sim.NewStats()
	f := bus.NewFabric(e, st, "t", false)
	mem := cache.NewMemory(f, "mem")
	f.AddRegion(bus.Region{Name: "dram", Base: 0, Size: 1 << 24, Home: mem, Loc: params.MemoryBus, Cachable: true})
	m := &pair{e: e, st: st, f: f}
	for i := range m.cpus {
		name := fmt.Sprintf("cpu%d", i)
		m.cpus[i] = New(e, st, f, cache.New(e, st, f, name+".c", 4096), i, name)
	}
	return m
}

// spawn starts a process on cpu i that sleeps lead cycles, then issues
// ranges through rng; it logs each range's return and its finish.
func (m *pair) spawn(name string, i int, rng ranger, lead sim.Time, ranges ...rangeOp) {
	m.e.Spawn(name, func(p *sim.Process) {
		if lead > 0 {
			p.Sleep(lead)
		}
		for _, r := range ranges {
			rng(m.cpus[i], p, r.addr, r.bytes, r.store)
			m.log = append(m.log, fmt.Sprintf("%s %d %v", name, p.Now(), r))
		}
		m.log = append(m.log, fmt.Sprintf("%s %d done", name, p.Now()))
	})
}

// hog starts a driven device on m's memory bus that issues n coherent
// reads back to back, of blocks no cache holds, so a miss issued
// meanwhile queues for the bus behind one.
func (m *pair) hog(n int) {
	dev := cache.NewMemory(m.f, "hog")
	var c *bus.Call
	var step func()
	step = func() {
		if n > 0 {
			n--
			c.Do(bus.Tx{Kind: bus.CR, Addr: 1<<22 + uint64(n%64)*params.BlockBytes, Initiator: dev}, step)
		}
	}
	c = bus.NewCall(m.f, m.e.Drive("hog", step))
}

// rangeOp is one load or store range.
type rangeOp struct {
	store bool
	addr  uint64
	bytes int
}

func load(addr uint64, bytes int) rangeOp  { return rangeOp{false, addr, bytes} }
func store(addr uint64, bytes int) rangeOp { return rangeOp{true, addr, bytes} }

// outcome is what a case must reproduce exactly under either path.
type outcome struct {
	scheduled uint64
	end       sim.Time
	log       []string
	counters  string
	probed    uint64
}

func run(build func(m *pair, rng ranger), rng ranger) outcome {
	m := newPair()
	build(m, rng)
	end := m.e.RunAll()
	m.e.Stop()
	return outcome{m.e.Scheduled(), end, m.log, m.st.String(), m.e.Counters().Probed}
}

// TestRangeProbesMatchPerWordLoop pins the range probes' contract:
// every case schedules the same events, ends at the same cycle,
// returns from every range and finishes every process at the same
// cycles, and leaves every counter as a per-word loop of Cache.Load
// and Cache.Store does — while running hit words as probes.
func TestRangeProbesMatchPerWordLoop(t *testing.T) {
	type tc struct {
		name   string
		build  func(m *pair, rng ranger)
		probes bool // the probe path must probe at least one wake
	}
	cases := []tc{
		{"all words hit", func(m *pair, rng ranger) {
			m.spawn("a", 0, rng, 0, store(0, 256), load(0, 256), store(0, 256), load(4, 12), store(0, 100))
		}, true},
		{"exclusive line stored to", func(m *pair, rng ranger) {
			// The loads leave both blocks Exclusive; the store range
			// meets block 1's Exclusive line at a probe.
			m.spawn("a", 0, rng, 0, load(0, 128), store(0, 128), load(0, 128))
		}, true},
		{"range ends on a miss", func(m *pair, rng ranger) {
			m.spawn("a", 0, rng, 0, load(0, 64), load(0, 72), store(128, 64), store(128, 72))
		}, true},
		{"empty and one-word ranges", func(m *pair, rng ranger) {
			m.spawn("a", 0, rng, 0, load(0, 0), store(0, 0), load(0, 8), load(0, 8), store(0, 8), store(0, 8), load(0, -8))
		}, false},
		{"two processes on one cpu", func(m *pair, rng ranger) {
			m.spawn("a", 0, rng, 0, store(0, 512), load(0, 512), store(0, 512), load(1024, 256))
			m.spawn("b", 0, rng, 3, load(0, 512), store(256, 512), load(0, 512))
		}, true},
	}
	// Another agent's transactions — a read-invalidate, a read of a
	// Modified line (which leaves it Owned, so a store misses), another
	// read-invalidate — land in a's hit runs (cycles 392 to 584 with no
	// other traffic) at every other cycle, including those of a's wakes.
	for lead := sim.Time(300); lead < 560; lead += 2 {
		cases = append(cases, tc{fmt.Sprintf("snoop from %d", lead), func(m *pair, rng ranger) {
			m.spawn("a", 0, rng, 0, load(0, 512), load(0, 512), store(0, 512), load(0, 512))
			m.spawn("other", 1, perWord, lead, store(256, 8), load(64, 8), store(448, 8))
		}, true})
	}
	shapes := map[string]bool{} // distinct counter dumps of the snoop cases
	for _, c := range cases {
		want, got := run(c.build, perWord), run(c.build, probed)
		if strings.HasPrefix(c.name, "snoop") {
			shapes[want.counters] = true
		}
		if want.scheduled != got.scheduled || want.end != got.end {
			t.Errorf("%s: scheduled %d events, ended at %d; per-word loop %d, %d", c.name, got.scheduled, got.end, want.scheduled, want.end)
		}
		if !slices.Equal(got.log, want.log) {
			t.Errorf("%s: ranges returned at\n  %q\nper-word loop:\n  %q", c.name, got.log, want.log)
		}
		if got.counters != want.counters {
			t.Errorf("%s: counters\n%s\nper-word loop:\n%s", c.name, got.counters, want.counters)
		}
		if want.probed != 0 || c.probes && got.probed == 0 {
			t.Errorf("%s: %d probed wakes (per-word loop %d), want some only on the probe path", c.name, got.probed, want.probed)
		}
	}
	if len(shapes) < 3 {
		t.Errorf("the snoops cut a's runs in %d ways, want several", len(shapes))
	}
}

// TestRangeResumesOnce pins what a range costs its process: one
// resume or self-wake, read from the engine's counters, however many of
// its words miss — with dirty victims written back, misses on a range's
// first and last words, and, in the contended pass, every miss queued
// for the bus behind a device's transfer.
func TestRangeResumesOnce(t *testing.T) {
	ranges := []rangeOp{
		store(0, 512),         // eight store misses
		load(4096+8, 512),     // eight dirty victims, a miss on the last word
		store(8192+56, 72),    // misses on the first and last words
		load(0, 8),            // one word
		store(4096+128, 4096), // every line, half of them dirty
	}
	var took [2][]sim.Time
	for pass, contended := range []bool{false, true} {
		m := newPair()
		if contended {
			m.hog(10_000)
		}
		m.e.Spawn("a", func(p *sim.Process) {
			for _, r := range ranges {
				before, start := m.e.Counters(), p.Now()
				probed(m.cpus[0], p, r.addr, r.bytes, r.store)
				after := m.e.Counters()
				if n := after.Resumes + after.SelfWakes - before.Resumes - before.SelfWakes; n != 1 {
					t.Errorf("contended %v: %v cost %d resumes and self-wakes, want 1", contended, r, n)
				}
				took[pass] = append(took[pass], p.Now()-start)
			}
		})
		m.e.Run(1 << 20)
		m.e.Stop()
		if wb := m.st.Get("cpu0.c.writeback"); wb == 0 {
			t.Errorf("contended %v: no dirty victim was written back", contended)
		}
	}
	for i, r := range ranges {
		if took[1][i] <= took[0][i] {
			t.Errorf("%v took %d cycles behind the device, %d alone: its misses never queued", r, took[1][i], took[0][i])
		}
	}
}

// TestRangeProbesZeroAlloc pins steady-state ranges — two processes
// on one CPU, each in a range at once, whose misses write dirty victims
// back and queue for the bus behind each other and behind a device —
// at zero allocations: the probes and their miss paths come from the
// CPU's pool, and the transactions' boxes from the fabric's.
func TestRangeProbesZeroAlloc(t *testing.T) {
	m := newPair()
	m.hog(1 << 30)
	cpu := m.cpus[0]
	for i, base := range []uint64{0, 4096} {
		m.e.Spawn(fmt.Sprintf("p%d", i), func(p *sim.Process) {
			for {
				cpu.StoreRange(p, base, 256)
				cpu.LoadRange(p, base+8, 200)
			}
		})
	}
	m.e.Run(5000)
	misses := m.st.Get("cpu0.c.store.miss") + m.st.Get("cpu0.c.load.miss")
	allocs := testing.AllocsPerRun(100, func() { m.e.Run(m.e.Now() + 500) })
	if allocs != 0 {
		t.Errorf("steady-state ranges allocate %.1f objects per 500 cycles, want 0", allocs)
	}
	if m.e.Counters().Probed == 0 {
		t.Error("no wake ran as a probe")
	}
	if m.st.Get("cpu0.c.store.miss")+m.st.Get("cpu0.c.load.miss") == misses || m.st.Get("cpu0.c.writeback") == 0 {
		t.Error("the measured ranges took no misses or wrote no victim back")
	}
	m.e.Stop()
}

// regDev is a memory-bus device whose registers hold nothing: reads
// return 0 and writes are dropped, so touching it allocates nothing.
type regDev struct{}

func (regDev) AgentName() string                   { return "regdev" }
func (regDev) AgentClass() params.AgentClass       { return params.ClassDevice }
func (regDev) SnoopTx(tx bus.Tx, h bool) bus.Snoop { return bus.Snoop{} }
func (regDev) RegRead(reg uint64) uint64           { return 0 }
func (regDev) RegWrite(reg, val uint64)            {}

// TestUncachedLoadZeroAlloc pins steady-state device accesses at zero
// allocations: the runs and their bus handles come from the CPU's pool.
// On cpu0 two processes load a device register, queued for the bus
// behind each other and behind a device, while a third posts runs of
// uncached stores that overflow the store buffer, which the loads must
// wait to drain. On cpu1 a fourth posts stores and fences them with a
// lone MEMBAR, so each CPU's membar.stall counts one kind of wait.
func TestUncachedLoadZeroAlloc(t *testing.T) {
	m := newPair()
	m.hog(1 << 30)
	dev := regDev{}
	m.f.Attach(dev, params.MemoryBus)
	cpu, fencer := m.cpus[0], m.cpus[1]
	for i, n := range []int{1, 4} {
		m.e.Spawn(fmt.Sprintf("p%d", i), func(p *sim.Process) {
			for {
				cpu.UncachedLoad(p, dev, 8, n)
			}
		})
	}
	m.e.Spawn("poster", func(p *sim.Process) {
		for {
			cpu.UncachedStore(p, dev, 16, 1, params.StoreBufferDepth+2)
			cpu.Compute(p, 1000)
		}
	})
	m.e.Spawn("fencer", func(p *sim.Process) {
		for {
			fencer.UncachedStore(p, dev, 24, 1, 2)
			fencer.Membar(p)
			fencer.Compute(p, 150)
		}
	})
	m.e.Run(5000)
	get := m.st.Get
	loads, stalls, full, fences := get("unc.load.memory"), get("cpu0.membar.stall"), get("cpu0.sb.full"), get("cpu1.membar.stall")
	allocs := testing.AllocsPerRun(100, func() { m.e.Run(m.e.Now() + 500) })
	if allocs != 0 {
		t.Errorf("steady-state device accesses allocate %.1f objects per 500 cycles, want 0", allocs)
	}
	if m.e.Counters().Probed == 0 {
		t.Error("no wake ran as a probe")
	}
	if get("unc.load.memory") == loads || get("cpu0.membar.stall") == stalls {
		t.Error("the measured window issued no loads or no load waited for the store buffer")
	}
	if get("cpu0.sb.full") == full {
		t.Error("no store run in the measured window found the store buffer full")
	}
	if get("cpu1.membar.stall") == fences {
		t.Error("no lone MEMBAR in the measured window waited for the store buffer")
	}
	m.e.Stop()
}
