package nic_test

import (
	"fmt"
	"testing"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/network"
	"repro/internal/nic"
	"repro/internal/params"
	"repro/internal/sim"
)

// TestRangeResumesOncePerCopy pins what a message copy costs the
// process on every cachable-queue NI: one resume or self-wake, however
// many blocks the message spans and however many of its words miss.
// The copy is one range, so a send costs four (the shadow-head load,
// the copy, the tail store and the message-ready store's issue) and a
// receive three (the poll load, the copy and the head store; four with
// the explicit valid-word clear of NoSenseReverse). Each side runs
// while the other node's process is parked or done, so every resume
// the engine counts is the measured one's.
func TestRangeResumesOncePerCopy(t *testing.T) {
	sizes := []int{params.MaxPayloadBytes, 120, 8, 180}
	for _, cfg := range []params.Config{
		{Nodes: 2, NI: params.CNI16Q, Bus: params.MemoryBus},
		{Nodes: 2, NI: params.CNI16Q, Bus: params.IOBus},
		{Nodes: 2, NI: params.CNI512Q, Bus: params.MemoryBus},
		{Nodes: 2, NI: params.CNI16Qm, Bus: params.MemoryBus},
		{Nodes: 2, NI: params.CNI16Qm, Bus: params.MemoryBus, NoValidBits: true},
		{Nodes: 2, NI: params.CNI16Q, Bus: params.MemoryBus, NoSenseReverse: true},
	} {
		m := machine.New(cfg)
		resumes := func() uint64 { c := m.Counters(); return c.Resumes + c.SelfWakes }
		check := func(what string, size int, op func(), want uint64) {
			before := resumes()
			op()
			if n := resumes() - before; n != want {
				t.Errorf("%s: a %d B %s cost %d resumes and self-wakes, want %d", cfg.Name(), size, what, n, want)
			}
		}
		m.Spawn(0, func(p *sim.Process, nd *machine.Node) {
			p.Sleep(1) // after node 1's first activation
			for _, size := range sizes {
				msg := &network.Msg{Src: 0, Dst: 1, Size: size, Blocks: network.MsgBlocks(size), FragTotal: 1}
				check("send", size, func() {
					if !nd.NI.TrySend(p, msg) {
						t.Errorf("%s: the NI refused a %d B message", cfg.Name(), size)
					}
				}, 4)
			}
		})
		recvWant := uint64(3)
		if cfg.NoSenseReverse {
			recvWant++
		}
		m.Spawn(1, func(p *sim.Process, nd *machine.Node) {
			p.Sleep(1 << 20)
			for _, size := range sizes {
				check("receive", size, func() {
					if got := nd.NI.TryRecv(p); got == nil || got.Size != size {
						t.Errorf("%s: received %v, want the %d B message", cfg.Name(), got, size)
					}
				}, recvWant)
			}
		})
		m.Run(sim.Time(1) << 40)
		m.Stop()
		if m.Stats.Get("node0.cache.store.miss") == 0 || m.Stats.Get("node1.cache.load.miss") == 0 {
			t.Errorf("%s: the copies took no misses", cfg.Name())
		}
	}
}

// hog starts a driven device on node id's memory bus that issues
// coherent reads back to back, of blocks no cache holds, so a load
// issued meanwhile queues for the bus behind one.
func hog(m *machine.Machine, id int) {
	f := m.Nodes[id].Fabric
	dev := cache.NewMemory(f, fmt.Sprintf("node%d.hog", id))
	var c *bus.Call
	n := uint64(0)
	var step func()
	step = func() {
		n++
		c.Do(bus.Tx{Kind: bus.CR, Addr: machine.UserBase + 0x40000 + n%64*params.BlockBytes, Initiator: dev}, step)
	}
	c = bus.NewCall(f, m.Eng.Drive(fmt.Sprintf("node%d.hog", id), step))
}

// TestUncachedLoadResumesOnce pins what uncached loads cost the
// process: one resume or self-wake per CPU.UncachedLoad, of one word or
// several, from a cache-, memory- or I/O-bus device, alone and queued
// behind a driven device holding the memory bus. So an empty receive
// poll (one status load) costs one on every uncached-status NI, and an
// NI2w receive (the status load, then every data word in one call)
// costs two at every size. Each side runs while the other node's
// process is parked or done, so every resume the engine counts is the
// measured one's.
func TestUncachedLoadResumesOnce(t *testing.T) {
	sizes := []int{8, 120, params.MaxPayloadBytes}
	const round = 1 << 16
	for _, cfg := range []params.Config{
		{Nodes: 2, NI: params.NI2w, Bus: params.CacheBus},
		{Nodes: 2, NI: params.NI2w, Bus: params.MemoryBus},
		{Nodes: 2, NI: params.NI2w, Bus: params.IOBus},
		{Nodes: 2, NI: params.CNI4, Bus: params.MemoryBus},
		{Nodes: 2, NI: params.CNI4, Bus: params.IOBus},
		{Nodes: 2, NI: params.DMA, Bus: params.MemoryBus},
		{Nodes: 2, NI: params.DMA, Bus: params.IOBus},
	} {
		var took [2][]sim.Time
		for pass, contended := range []bool{false, true} {
			name := fmt.Sprintf("%s contended=%v", cfg.Name(), contended)
			m := machine.New(cfg)
			if contended {
				hog(m, 0)
				hog(m, 1)
			}
			resumes := func() uint64 { c := m.Counters(); return c.Resumes + c.SelfWakes }
			check := func(what string, p *sim.Process, op func(), want uint64) {
				before, start := resumes(), p.Now()
				op()
				if n := resumes() - before; n != want {
					t.Errorf("%s: %s cost %d resumes and self-wakes, want %d", name, what, n, want)
				}
				took[pass] = append(took[pass], p.Now()-start)
			}
			m.Spawn(0, func(p *sim.Process, nd *machine.Node) {
				p.Sleep(1) // after node 1's first activation
				for _, words := range []int{1, 4} {
					check(fmt.Sprintf("a %d-word status load", words), p, func() {
						nd.CPU.UncachedLoad(p, nd.NI, nic.RegSendStatus, words)
					}, 1)
				}
				check("an empty receive poll", p, func() {
					if got := nd.NI.TryRecv(p); got != nil {
						t.Errorf("%s: received %v from an idle network", name, got)
					}
				}, 1)
				if cfg.NI != params.NI2w {
					return
				}
				for i, size := range sizes {
					p.Sleep(sim.Time(i+1)*round - p.Now())
					msg := &network.Msg{Src: 0, Dst: 1, Size: size, Blocks: network.MsgBlocks(size), FragTotal: 1}
					if !nd.NI.TrySend(p, msg) {
						t.Errorf("%s: the NI refused a %d B message", name, size)
					}
				}
			})
			if cfg.NI == params.NI2w {
				m.Spawn(1, func(p *sim.Process, nd *machine.Node) {
					for i, size := range sizes {
						p.Sleep(sim.Time(i+1)*round + round/2 - p.Now())
						check(fmt.Sprintf("a %d B receive", size), p, func() {
							if got := nd.NI.TryRecv(p); got == nil || got.Size != size {
								t.Errorf("%s: received %v, want the %d B message", name, got, size)
							}
						}, 2)
					}
				})
			}
			m.Run(sim.Time(len(sizes)+1) * round)
			m.Stop()
		}
		if cfg.Bus == params.CacheBus {
			continue
		}
		for i := range took[0] {
			if took[1][i] <= took[0][i] {
				t.Errorf("%s: access %d took %d cycles behind the device, %d alone: it never queued", cfg.Name(), i, took[1][i], took[0][i])
			}
		}
	}
}
