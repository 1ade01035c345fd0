package nic_test

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/nic"
	"repro/internal/params"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/miss_order.golden from the current model")

// missCell is one miss-order pin configuration: a two-node machine and
// the processes it runs, which log each access's completion.
type missCell struct {
	name string
	cfg  params.Config
	run  func(m *machine.Machine, log func(p *sim.Process, what string))
}

// Addresses for the processor-side cells: a user block and the block
// one cache size above it, which maps to the same direct-mapped line.
const (
	userA    = machine.UserBase
	conflict = machine.UserBase + params.ProcCacheBytes
)

// wordOps are the one-word and range accesses a process can issue on
// its node's CPU, logged by name as they complete.
type wordOps struct {
	nd  *machine.Node
	p   *sim.Process
	log func(p *sim.Process, what string)
}

func (o wordOps) load(addr uint64) {
	o.nd.CPU.Load(o.p, addr)
	o.log(o.p, fmt.Sprintf("load %#x", addr))
}

func (o wordOps) store(addr uint64) {
	o.nd.CPU.Store(o.p, addr)
	o.log(o.p, fmt.Sprintf("store %#x", addr))
}

func (o wordOps) loadRange(addr uint64, bytes int) {
	o.nd.CPU.LoadRange(o.p, addr, bytes)
	o.log(o.p, fmt.Sprintf("loadrange %#x+%d", addr, bytes))
}

func (o wordOps) storeRange(addr uint64, bytes int) {
	o.nd.CPU.StoreRange(o.p, addr, bytes)
	o.log(o.p, fmt.Sprintf("storerange %#x+%d", addr, bytes))
}

// uncachedLoad is one uncached load of the node's NI register reg.
func (o wordOps) uncachedLoad(reg uint64) {
	o.nd.CPU.UncachedLoad(o.p, o.nd.NI, reg, 1)
	o.log(o.p, fmt.Sprintf("uncload %#x", reg))
}

// uncachedStore posts one uncached store to the node's NI register reg.
func (o wordOps) uncachedStore(reg uint64) {
	o.nd.CPU.UncachedStore(o.p, o.nd.NI, reg, 0, 1)
	o.log(o.p, fmt.Sprintf("uncstore %#x", reg))
}

// spawnOps starts a process on node id that sleeps lead cycles and
// then runs body on its word operations.
func spawnOps(m *machine.Machine, id int, lead sim.Time, log func(*sim.Process, string), body func(o wordOps)) {
	m.Spawn(id, func(p *sim.Process, nd *machine.Node) {
		p.Sleep(lead)
		body(wordOps{nd, p, log})
		log(p, "done")
	})
}

// streamBoth has each node send n messages to the other, walking
// through sizes, then poll until it has received n; it logs every
// send's return and every handler run.
func streamBoth(m *machine.Machine, n int, sizes []int, log func(*sim.Process, string)) {
	const h = 1
	got := make([]int, len(m.Nodes))
	for id := range m.Nodes {
		id := id
		nd := m.Nodes[id]
		nd.Msgr.Register(h, func(ctx msg.Context) {
			got[id]++
			log(ctx.P, fmt.Sprintf("recv %d B", ctx.Size))
		})
		m.Spawn(id, func(p *sim.Process, nd *machine.Node) {
			for i := 0; i < n; i++ {
				size := sizes[(i+id)%len(sizes)]
				nd.Msgr.Send(p, 1-id, h, size, nil)
				log(p, fmt.Sprintf("sent %d B", size))
			}
			nd.Msgr.PollUntil(p, func() bool { return got[id] == n })
			log(p, "done")
		})
	}
}

// missCells covers every way a cache miss reaches the buses: range
// misses while an NI's engine holds the memory bus, a dirty victim's
// writeback inside a range, fills that cross to an I/O-bus NI, a miss
// on a range's last word, one-word misses, and the message copy of
// every NI that copies through the cache; and the uncached status and
// data loads of the NIs that poll a device register.
func missCells() []missCell {
	sizes := []int{8, 52, 56, 120, 244, 600}
	cells := []missCell{{
		name: "ranges under a device's bus",
		cfg:  params.Config{Nodes: 2, NI: params.CNI16Q, Bus: params.MemoryBus},
		run: func(m *machine.Machine, log func(*sim.Process, string)) {
			streamBoth(m, 10, sizes, log)
			// A second process on node 0 misses while node 0's send
			// engine pulls its messages over the memory bus.
			for lead := sim.Time(0); lead < 3; lead++ {
				spawnOps(m, 0, 40+lead*97, log, func(o wordOps) {
					base := userA + uint64(lead)*0x1000
					for k := uint64(0); k < 6; k++ {
						o.loadRange(base+k*200, 200)
						o.storeRange(base+k*200+8, 120)
					}
				})
			}
		},
	}, {
		name: "dirty victims in ranges",
		cfg:  params.Config{Nodes: 2, NI: params.NI2w, Bus: params.MemoryBus},
		run: func(m *machine.Machine, log func(*sim.Process, string)) {
			for i := 0; i < 2; i++ {
				off := uint64(i) * 0x800
				spawnOps(m, 0, sim.Time(i*5), log, func(o wordOps) {
					o.storeRange(userA+off, 256)         // four Modified lines
					o.loadRange(conflict+off+16, 192)    // each miss writes a victim back
					o.storeRange(userA+off+8, 256)       // and back again, ending a block early
					o.loadRange(userA+off+0x400, 64)     // clean lines, then
					o.storeRange(conflict+off+0x400, 72) // a miss on the last word
					o.loadRange(userA+off+0x300, 72)
				})
			}
		},
	}, {
		name: "one-word misses",
		cfg:  params.Config{Nodes: 2, NI: params.NI2w, Bus: params.MemoryBus},
		run: func(m *machine.Machine, log func(*sim.Process, string)) {
			for i := 0; i < 3; i++ {
				off := uint64(i) * 0x40
				spawnOps(m, 0, sim.Time(i*3), log, func(o wordOps) {
					for k := uint64(0); k < 4; k++ {
						o.store(userA + off + k*0x100)
						o.load(conflict + off + k*0x100) // writes the store's line back
						o.load(userA + off + k*0x100)
						o.store(userA + off + k*0x100 + 8) // Exclusive: a hit
						o.load(userA + off + 0x2000 + k*0x100)
					}
				})
			}
		},
	}}
	for _, c := range []struct {
		name string
		cfg  params.Config
	}{
		{"message copy", params.Config{Nodes: 2, NI: params.CNI4, Bus: params.MemoryBus}},
		{"message copy, crossing fills", params.Config{Nodes: 2, NI: params.CNI4, Bus: params.IOBus}},
		{"message copy", params.Config{Nodes: 2, NI: params.CNI16Q, Bus: params.MemoryBus}},
		{"message copy, crossing fills", params.Config{Nodes: 2, NI: params.CNI16Q, Bus: params.IOBus}},
		{"message copy, NoValidBits", params.Config{Nodes: 2, NI: params.CNI16Qm, Bus: params.MemoryBus, NoValidBits: true}},
		{"message copy", params.Config{Nodes: 2, NI: params.CNI16Qm, Bus: params.MemoryBus}},
		{"message copy", params.Config{Nodes: 2, NI: params.DMA, Bus: params.MemoryBus}},
		{"message copy, crossing fills", params.Config{Nodes: 2, NI: params.DMA, Bus: params.IOBus}},
	} {
		cells = append(cells, missCell{
			name: c.cfg.Name() + " " + c.name,
			cfg:  c.cfg,
			run: func(m *machine.Machine, log func(*sim.Process, string)) {
				streamBoth(m, 12, sizes, log)
				// A bystander on node 1 misses in user memory while
				// the copies run.
				spawnOps(m, 1, 150, log, func(o wordOps) {
					for k := uint64(0); k < 8; k++ {
						o.storeRange(userA+k*0x140, 96)
						o.load(conflict + k*0x140)
					}
				})
			},
		})
	}
	// Uncached status and data loads: each node streams and polls
	// while bystanders on node 1 take misses, post uncached stores that
	// the poller's loads must wait to drain (to a data register every
	// NI ignores; through the bridge on the I/O bus) and load a status
	// register, so the poller's loads queue behind the store-buffer
	// drain, the bridge, the NI's engines and each other.
	for _, c := range []struct {
		name   string
		cfg    params.Config
		stores int
	}{
		{"uncached loads", params.Config{Nodes: 2, NI: params.NI2w, Bus: params.CacheBus}, 4},
		{"uncached loads", params.Config{Nodes: 2, NI: params.NI2w, Bus: params.MemoryBus}, 4},
		{"uncached loads", params.Config{Nodes: 2, NI: params.NI2w, Bus: params.IOBus}, 4},
		{"uncached loads, bridge full", params.Config{Nodes: 2, NI: params.NI2w, Bus: params.IOBus}, 24},
		{"uncached loads", params.Config{Nodes: 2, NI: params.CNI4, Bus: params.MemoryBus}, 4},
		{"uncached loads", params.Config{Nodes: 2, NI: params.CNI4, Bus: params.IOBus}, 4},
		{"uncached loads", params.Config{Nodes: 2, NI: params.DMA, Bus: params.MemoryBus}, 4},
		{"uncached loads", params.Config{Nodes: 2, NI: params.DMA, Bus: params.IOBus}, 4},
	} {
		cells = append(cells, missCell{
			name: c.cfg.Name() + " " + c.name,
			cfg:  c.cfg,
			run: func(m *machine.Machine, log func(*sim.Process, string)) {
				streamBoth(m, 12, sizes, log)
				spawnOps(m, 1, 90, log, func(o wordOps) {
					for k := uint64(0); k < 8; k++ {
						o.loadRange(userA+k*0x140, 136)
						o.store(conflict + k*0x140)
					}
				})
				spawnOps(m, 1, 130, log, func(o wordOps) {
					for k := 0; k < 10; k++ {
						for i := 0; i < c.stores; i++ {
							o.uncachedStore(nic.RegSendData)
						}
						o.uncachedLoad(nic.RegSendStatus)
						o.nd.CPU.Compute(o.p, sim.Time(60+k*37))
					}
				})
			},
		})
	}
	return cells
}

// runMissCell runs c and returns its pin lines: the final cycle, the
// events scheduled, every logged completion and a dump of every
// counter.
func runMissCell(t *testing.T, c missCell) string {
	t.Helper()
	m := machine.New(c.cfg)
	defer m.Stop()
	var log []string
	c.run(m, func(p *sim.Process, what string) {
		log = append(log, fmt.Sprintf("%d %s %s", p.Now(), p.Name(), what))
	})
	end := m.Run(sim.Time(1) << 40)
	var b strings.Builder
	fmt.Fprintf(&b, "%s: end=%d scheduled=%d\n", c.name, end, m.Counters().Scheduled)
	for _, l := range log {
		fmt.Fprintf(&b, "  %s\n", l)
	}
	fmt.Fprintf(&b, "  stats sha256 %x\n", sha256.Sum256([]byte(m.Stats.String())))
	for _, line := range strings.Split(m.Stats.String(), "\n") {
		if strings.Contains(line, ".cache.") || strings.HasPrefix(line, "tx.") || strings.Contains(line, "bus.cycles") {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	return b.String()
}

// TestMissOrderPinned pins the event order of every cache miss path
// and uncached load: per cell the final cycle, the events scheduled,
// the cycle each access, send, receive and process completed at, and
// the counters. The golden was generated while misses, and later
// uncached loads, resumed the issuing process at every bus grant and
// transfer; it must stay byte-identical however they are run.
// Regenerate it only for a deliberate timing-model change.
func TestMissOrderPinned(t *testing.T) {
	var b strings.Builder
	for _, c := range missCells() {
		b.WriteString(runMissCell(t, c))
	}
	got := b.String()
	path := filepath.Join("testdata", "miss_order.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("miss order drifted at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("miss order drifted: %d lines, want %d", len(gl), len(wl))
	}
}
