package msg_test

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/msg"
	"repro/internal/params"
	"repro/internal/sim"
)

// TestQuietPollTwoPollers runs two processes in PollUntil on one node
// at once: one waits for messages from node 0, the other for a flag
// node 2 flips without any message. Both idle-poll the same queue
// until the flag flips; node 0 starts sending only after that, since
// two processes receiving from one NI at once can both claim the same
// entry. The finish cycles and the node's empty-poll and load-hit
// counts are pinned at the values the plain resume-every-poll loop
// produces.
func TestQuietPollTwoPollers(t *testing.T) {
	for _, c := range []struct {
		ni                  params.NIKind
		doneA, doneB        sim.Time
		empty, hits, events uint64
	}{
		{params.CNI512Q, 8207, 2348, 1830, 1900, 4160},
		{params.CNI16Qm, 8207, 2348, 1830, 1900, 4160},
		{params.NI2w, 9323, 2356, 207, 0, 1112},
	} {
		m := machine.New(params.Config{Nodes: 3, NI: c.ni, Bus: params.MemoryBus})
		const h, msgs = 100, 5
		got, flag := 0, false
		var doneA, doneB sim.Time
		m.Nodes[1].Msgr.Register(h, func(ctx msg.Context) { got++ })
		m.Spawn(0, func(p *sim.Process, n *machine.Node) {
			n.CPU.Compute(p, 3000)
			for i := 0; i < msgs; i++ {
				n.CPU.Compute(p, 700)
				n.Msgr.Send(p, 1, h, 64*i, nil)
			}
		})
		m.Spawn(1, func(p *sim.Process, n *machine.Node) {
			n.Msgr.PollUntil(p, func() bool { return got == msgs })
			doneA = p.Now()
		})
		m.Spawn(1, func(p *sim.Process, n *machine.Node) {
			n.Msgr.PollUntil(p, func() bool { return flag })
			doneB = p.Now()
		})
		m.Spawn(2, func(p *sim.Process, n *machine.Node) {
			n.CPU.Compute(p, 2345)
			flag = true
		})
		m.Run(sim.Forever)
		m.Stop()
		empty, hits := m.Stats.Get("node1.ni.recv.poll.empty"), m.Stats.Get("node1.cache.load.hit")
		if doneA != c.doneA || doneB != c.doneB || empty != c.empty || hits != c.hits || m.Eng.Scheduled() != c.events {
			t.Errorf("%s: pollers done at %d and %d, %d empty polls, %d load hits, %d events; want %d, %d, %d, %d, %d",
				c.ni, doneA, doneB, empty, hits, m.Eng.Scheduled(), c.doneA, c.doneB, c.empty, c.hits, c.events)
		}
	}
}
