package bus

import (
	"testing"

	"repro/internal/params"
	"repro/internal/sim"
)

// stubAgent is a scriptable bus agent/device.
type stubAgent struct {
	name    string
	class   params.AgentClass
	snoops  []Tx
	supply  bool
	hasCopy bool
	regs    map[uint64]uint64
	writes  []uint64
}

func newStub(name string, class params.AgentClass) *stubAgent {
	return &stubAgent{name: name, class: class, regs: make(map[uint64]uint64)}
}

func (s *stubAgent) AgentName() string             { return s.name }
func (s *stubAgent) AgentClass() params.AgentClass { return s.class }
func (s *stubAgent) SnoopTx(tx Tx, isHome bool) Snoop {
	s.snoops = append(s.snoops, tx)
	return Snoop{HasCopy: s.hasCopy, WillSupply: s.supply}
}
func (s *stubAgent) RegRead(reg uint64) uint64 { return s.regs[reg] }
func (s *stubAgent) RegWrite(reg, val uint64)  { s.regs[reg] = val; s.writes = append(s.writes, reg) }

func memFabric(t *testing.T) (*sim.Engine, *Fabric, *stubAgent, *stubAgent) {
	t.Helper()
	e := sim.NewEngine()
	st := sim.NewStats()
	f := NewFabric(e, st, "t", false)
	home := newStub("home", params.ClassMemory)
	f.Attach(home, params.MemoryBus)
	f.AddRegion(Region{Name: "dram", Base: 0, Size: 1 << 20, Home: home, Loc: params.MemoryBus, Cachable: true})
	other := newStub("other", params.ClassProc)
	f.Attach(other, params.MemoryBus)
	return e, f, home, other
}

func TestRegionOverlapPanics(t *testing.T) {
	_, f, home, _ := memFabric(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected overlap panic")
		}
	}()
	f.AddRegion(Region{Name: "dup", Base: 512, Size: 64, Home: home, Loc: params.MemoryBus})
}

func TestLookupUnmappedPanics(t *testing.T) {
	_, f, _, _ := memFabric(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected unmapped panic")
		}
	}()
	f.Lookup(1 << 30)
}

func TestCoherentReadCostAndSnoop(t *testing.T) {
	e, f, _, other := memFabric(t)
	req := newStub("req", params.ClassProc)
	f.Attach(req, params.MemoryBus)
	var dur sim.Time
	e.Spawn("t", func(p *sim.Process) {
		start := p.Now()
		res := do(f, p, Tx{Kind: CR, Addr: 0x40, Initiator: req})
		dur = p.Now() - start
		if res.Supplier != params.ClassMemory {
			t.Errorf("supplier = %v, want memory", res.Supplier)
		}
	})
	e.RunAll()
	if dur != params.BlockMemBus {
		t.Errorf("CR took %d, want %d", dur, params.BlockMemBus)
	}
	if len(other.snoops) != 1 || other.snoops[0].Kind != CR {
		t.Errorf("other agent snooped %v", other.snoops)
	}
	if len(req.snoops) != 0 {
		t.Error("initiator must not snoop its own transaction")
	}
}

func TestCacheSupplierWins(t *testing.T) {
	e, f, _, other := memFabric(t)
	other.supply = true
	other.hasCopy = true
	req := newStub("req", params.ClassProc)
	f.Attach(req, params.MemoryBus)
	e.Spawn("t", func(p *sim.Process) {
		res := do(f, p, Tx{Kind: CR, Addr: 0x40, Initiator: req})
		if res.Supplier != params.ClassProc {
			t.Errorf("supplier = %v, want proc (cache-to-cache)", res.Supplier)
		}
		if !res.Shared {
			t.Error("Shared should be true when another cache holds a copy")
		}
	})
	e.RunAll()
}

func TestInvalidateCost(t *testing.T) {
	e, f, _, _ := memFabric(t)
	req := newStub("req", params.ClassDevice)
	f.Attach(req, params.MemoryBus)
	var dur sim.Time
	e.Spawn("t", func(p *sim.Process) {
		start := p.Now()
		do(f, p, Tx{Kind: CI, Addr: 0x80, Initiator: req})
		dur = p.Now() - start
	})
	e.RunAll()
	if dur != params.InvalMemBus {
		t.Errorf("CI took %d, want %d", dur, params.InvalMemBus)
	}
}

func TestCoherentOpOnUncachableRegionPanics(t *testing.T) {
	e, f, home, _ := memFabric(t)
	f.AddRegion(Region{Name: "regs", Base: 1 << 21, Size: 4096, Home: home, Loc: params.MemoryBus, Cachable: false})
	req := newStub("req", params.ClassProc)
	f.Attach(req, params.MemoryBus)
	caught := false
	e.Spawn("t", func(p *sim.Process) {
		defer func() { caught = recover() != nil }()
		do(f, p, Tx{Kind: CR, Addr: 1 << 21, Initiator: req})
	})
	e.RunAll()
	if !caught {
		t.Error("expected panic for CR on uncachable region")
	}
}

func TestUncachedLoadMemoryBus(t *testing.T) {
	e, f, _, _ := memFabric(t)
	dev := newStub("dev", params.ClassDevice)
	f.Attach(dev, params.MemoryBus)
	dev.regs[8] = 77
	var dur sim.Time
	var val uint64
	e.Spawn("t", func(p *sim.Process) {
		start := p.Now()
		val = load(f, p, dev, 8)
		dur = p.Now() - start
	})
	e.RunAll()
	if val != 77 {
		t.Errorf("value = %d", val)
	}
	if dur != sim.Time(params.UncLoadMemBus) {
		t.Errorf("load took %d, want %d", dur, params.UncLoadMemBus)
	}
}

func TestUncachedCacheBusBypassesBuses(t *testing.T) {
	e, f, _, _ := memFabric(t)
	dev := newStub("dev", params.ClassDevice)
	f.Attach(dev, params.CacheBus)
	var dur sim.Time
	e.Spawn("t", func(p *sim.Process) {
		start := p.Now()
		load(f, p, dev, 0)
		store(f, p, dev, 0, 1)
		dur = p.Now() - start
	})
	e.RunAll()
	if dur != 8 { // 4 + 4 cycles, no bus occupancy
		t.Errorf("cache-bus access took %d, want 8", dur)
	}
	if f.Mem.Busy().Total() != 0 {
		t.Error("cache-bus access must not occupy the memory bus")
	}
}

// loader spins coroutine p through one uncached load issued by
// BeginLoad: its probe ends the load at the transfer's end.
type loader struct {
	c    *Call
	busy bool
	val  uint64
}

func (l *loader) Probe() (sim.Time, bool) {
	if l.busy {
		l.val, l.busy = l.c.EndLoad(), false
	}
	return 0, true
}

// load makes an uncached load of dev's register reg from coroutine p
// through a Call's BeginLoad and EndLoad, and returns its value.
func load(f *Fabric, p *sim.Process, dev Device, reg uint64) uint64 {
	l := &loader{c: NewCall(f, nil), busy: true}
	p.Spin(l.c.BeginLoad(p, dev, reg), l)
	return l.val
}

// do runs tx from coroutine p through a Call's driven Do, parks p
// until it completes and returns its snoop summary.
func do(f *Fabric, p *sim.Process, tx Tx) Result {
	var done sim.Cond
	c := NewCall(f, p)
	c.Do(tx, done.Signal)
	done.Wait(p)
	return c.res
}

// store makes an uncached store from coroutine p through a Call and
// parks p until it completes.
func store(f *Fabric, p *sim.Process, dev Device, reg, val uint64) {
	var done sim.Cond
	NewCall(f, p).UncachedStore(PostedWrite{Dev: dev, Reg: reg, Val: val}, done.Signal)
	done.Wait(p)
}

func ioFabric(t *testing.T) (*sim.Engine, *Fabric, *stubAgent) {
	t.Helper()
	e := sim.NewEngine()
	st := sim.NewStats()
	f := NewFabric(e, st, "t", true)
	home := newStub("home", params.ClassMemory)
	f.Attach(home, params.MemoryBus)
	f.AddRegion(Region{Name: "dram", Base: 0, Size: 1 << 20, Home: home, Loc: params.MemoryBus, Cachable: true})
	return e, f, home
}

func TestCrossingReadHoldsBothBuses(t *testing.T) {
	e, f, _ := ioFabric(t)
	dev := newStub("dev", params.ClassDevice)
	f.Attach(dev, params.IOBus)
	f.AddRegion(Region{Name: "devq", Base: 1 << 21, Size: 4096, Home: dev, Loc: params.IOBus, Cachable: true})
	req := newStub("req", params.ClassProc)
	f.Attach(req, params.MemoryBus)
	var dur sim.Time
	e.Spawn("t", func(p *sim.Process) {
		start := p.Now()
		do(f, p, Tx{Kind: CR, Addr: 1 << 21, Initiator: req})
		dur = p.Now() - start
	})
	e.RunAll()
	if dur != params.BlockIODevToProc {
		t.Errorf("crossing CR took %d, want %d", dur, params.BlockIODevToProc)
	}
	// Blocking crossing reads occupy both buses for the whole transfer.
	if f.Mem.Busy().Total() != params.BlockIODevToProc {
		t.Errorf("memory bus busy %d, want %d", f.Mem.Busy().Total(), params.BlockIODevToProc)
	}
	if f.IO.Busy().Total() != params.BlockIODevToProc {
		t.Errorf("I/O bus busy %d, want %d", f.IO.Busy().Total(), params.BlockIODevToProc)
	}
}

func TestPostedStoreReleasesMemoryBusEarly(t *testing.T) {
	e, f, _ := ioFabric(t)
	dev := newStub("dev", params.ClassDevice)
	f.Attach(dev, params.IOBus)
	var issueDur sim.Time
	e.Spawn("t", func(p *sim.Process) {
		start := p.Now()
		store(f, p, dev, 8, 5)
		issueDur = p.Now() - start
	})
	e.RunAll()
	// The store occupies the memory bus only for its memory-bus share;
	// the bridge forwards it onto the I/O bus afterwards.
	if issueDur != sim.Time(params.UncStoreMemBus) {
		t.Errorf("posted store held the caller %d cycles, want %d", issueDur, params.UncStoreMemBus)
	}
	if dev.regs[8] != 5 {
		t.Error("posted store never reached the device")
	}
	if got := f.IO.Busy().Total(); got != sim.Time(params.UncStoreIOBus) {
		t.Errorf("I/O bus busy %d, want %d", got, params.UncStoreIOBus)
	}
}

func TestBridgePreservesStoreOrder(t *testing.T) {
	e, f, _ := ioFabric(t)
	dev := newStub("dev", params.ClassDevice)
	f.Attach(dev, params.IOBus)
	e.Spawn("t", func(p *sim.Process) {
		for i := uint64(0); i < 12; i++ { // more than the bridge buffer
			store(f, p, dev, i, i)
		}
	})
	e.RunAll()
	if len(dev.writes) != 12 {
		t.Fatalf("device saw %d writes, want 12", len(dev.writes))
	}
	for i, reg := range dev.writes {
		if reg != uint64(i) {
			t.Fatalf("write order violated at %d: reg %d", i, reg)
		}
	}
}

func TestBusFIFOOrderUnderContention(t *testing.T) {
	e, f, _, _ := memFabric(t)
	req1 := newStub("req1", params.ClassProc)
	req2 := newStub("req2", params.ClassProc)
	f.Attach(req1, params.MemoryBus)
	f.Attach(req2, params.MemoryBus)
	var order []string
	e.Spawn("a", func(p *sim.Process) {
		do(f, p, Tx{Kind: CR, Addr: 0x40, Initiator: req1})
		order = append(order, "a")
	})
	e.Spawn("b", func(p *sim.Process) {
		do(f, p, Tx{Kind: CR, Addr: 0x80, Initiator: req2})
		order = append(order, "b")
	})
	e.RunAll()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v, want [a b]", order)
	}
	if e.Now() != 2*params.BlockMemBus {
		t.Fatalf("two serialised CRs ended at %d, want %d", e.Now(), 2*params.BlockMemBus)
	}
}

func TestUncachedLoadIOBusHoldsBothBuses(t *testing.T) {
	e, f, _ := ioFabric(t)
	dev := newStub("dev", params.ClassDevice)
	f.Attach(dev, params.IOBus)
	dev.regs[16] = 9
	var dur sim.Time
	var val uint64
	e.Spawn("t", func(p *sim.Process) {
		start := p.Now()
		val = load(f, p, dev, 16)
		dur = p.Now() - start
	})
	e.RunAll()
	if val != 9 {
		t.Errorf("value = %d, want 9", val)
	}
	if dur != sim.Time(params.UncLoadIOBus) {
		t.Errorf("I/O-bus load took %d, want %d", dur, params.UncLoadIOBus)
	}
	if got := f.Mem.Busy().Total(); got != sim.Time(params.UncLoadIOBus) {
		t.Errorf("memory bus busy %d, want %d", got, params.UncLoadIOBus)
	}
	if got := f.IO.Busy().Total(); got != sim.Time(params.UncLoadIOBus) {
		t.Errorf("I/O bus busy %d, want %d", got, params.UncLoadIOBus)
	}
	if got := f.uncLoad[params.IOBus].Value(); got != 1 {
		t.Errorf("unc.load.io = %d, want 1", got)
	}
}

// TestUncachedLoadQueuesBehindTransaction checks a load that finds the
// bus held waits its turn: granted in FIFO order behind a driven
// transaction, and the transaction queued behind it waits for the load.
func TestUncachedLoadQueuesBehindTransaction(t *testing.T) {
	e, f, _, _ := memFabric(t)
	dev := newStub("dev", params.ClassDevice)
	f.Attach(dev, params.MemoryBus)
	req := newStub("req", params.ClassDevice)
	f.Attach(req, params.MemoryBus)
	var order []string
	var first, last *Call
	first = NewCall(f, e.Drive("first", func() {
		first.Do(Tx{Kind: CR, Addr: 0x40, Initiator: req}, func() { order = append(order, "first") })
	}))
	e.Spawn("load", func(p *sim.Process) {
		load(f, p, dev, 0)
		order = append(order, "load")
	})
	last = NewCall(f, e.Drive("last", func() {
		last.Do(Tx{Kind: CR, Addr: 0x80, Initiator: req}, func() { order = append(order, "last") })
	}))
	e.RunAll()
	if len(order) != 3 || order[0] != "first" || order[1] != "load" || order[2] != "last" {
		t.Fatalf("order = %v, want [first load last]", order)
	}
	if want := 2*params.BlockMemBus + sim.Time(params.UncLoadMemBus); e.Now() != want {
		t.Fatalf("serialised accesses ended at %d, want %d", e.Now(), want)
	}
}

// TestUncachedLoadReadsAtTransferEnd checks a load returns the
// register's value when its transfer ends, not when it was issued.
func TestUncachedLoadReadsAtTransferEnd(t *testing.T) {
	e, f, _, _ := memFabric(t)
	dev := newStub("dev", params.ClassDevice)
	f.Attach(dev, params.MemoryBus)
	dev.regs[8] = 1
	e.ScheduleAt(sim.Time(params.UncLoadMemBus)/2, func() { dev.regs[8] = 2 })
	var val uint64
	e.Spawn("t", func(p *sim.Process) { val = load(f, p, dev, 8) })
	e.RunAll()
	if val != 2 {
		t.Errorf("load returned %d, want 2 (the value at the transfer's end)", val)
	}
}
