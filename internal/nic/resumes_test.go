package nic_test

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/network"
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
