package machine

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/nic"
	"repro/internal/params"
	"repro/internal/sim"
)

// TestOnlyAppsAreCoroutines checks that a built machine starts no
// coroutine of its own — its NI engines, store-buffer drains and I/O
// bridges are driven processes — for every NI kind on every bus
// location it may sit on: running it adds no goroutine, and each app
// process adds exactly one.
func TestOnlyAppsAreCoroutines(t *testing.T) {
	for _, ni := range append(append([]params.NIKind{}, params.AllNIs...), params.DMA) {
		for _, b := range []params.BusKind{params.CacheBus, params.MemoryBus, params.IOBus} {
			cfg := params.Config{Nodes: 4, NI: ni, Bus: b}
			if cfg.Validate() != nil {
				continue
			}
			base := runtime.NumGoroutine()
			m := New(cfg)
			m.Run(1000)
			if n := runtime.NumGoroutine() - base; n != 0 {
				t.Errorf("%s: the machine alone runs %d goroutines", cfg.Name(), n)
			}
			for id := range m.Nodes {
				m.Spawn(id, func(p *sim.Process, n *Node) { p.Sleep(5000) })
			}
			m.Run(2000)
			if n := runtime.NumGoroutine() - base; n != cfg.Nodes {
				t.Errorf("%s: %d goroutines with %d app processes", cfg.Name(), n, cfg.Nodes)
			}
			if r := m.Counters().Resumes; r != uint64(cfg.Nodes) {
				t.Errorf("%s: %d coroutine resumes, want one per app", cfg.Name(), r)
			}
			m.Stop()
		}
	}
}

// TestDeviceStepPanicNamesDevice checks that a panic inside a device's
// driven step comes out of Run as a *sim.ProcessPanic naming the node,
// the device and the cycle, both when the step ran inline on a parked
// app's stack and when Run dispatched it. The store-buffer drain hits
// the CQ NI's "message-ready with no staged message"; the receive
// engine is handed a message it cannot stage.
func TestDeviceStepPanicNamesDevice(t *testing.T) {
	cfg := params.Config{Nodes: 4, NI: params.CNI16Q, Bus: params.MemoryBus}
	cases := []struct {
		name, device, value string
		act                 func(p *sim.Process, n *Node)
	}{
		{"sbdrain", "node3.cpu.sbdrain", "message-ready with no staged message", func(p *sim.Process, n *Node) {
			n.CPU.UncachedStore(p, n.NI, nic.RegSendCommit, 1)
		}},
		{"recv", "node3.ni.recv", "nil pointer dereference", func(p *sim.Process, n *Node) {
			n.NI.NetDeliver(nil)
		}},
	}
	for _, c := range cases {
		for _, inline := range []bool{true, false} {
			m := New(cfg)
			m.Spawn(3, func(p *sim.Process, n *Node) {
				p.Sleep(100)
				c.act(p, n)
				if inline {
					p.Sleep(10_000) // park: the device's steps run below this frame
				}
			})
			r := func() (r any) {
				defer func() { r = recover() }()
				m.Run(sim.Forever)
				return nil
			}()
			pp, ok := r.(*sim.ProcessPanic)
			switch {
			case !ok:
				t.Errorf("%s inline=%v: Run raised %#v, want a *sim.ProcessPanic", c.name, inline, r)
			case pp.Process != c.device || pp.At < 100 || pp.At > 200:
				t.Errorf("%s inline=%v: ProcessPanic{%q, cycle %d}, want {%q, cycle 100..200}", c.name, inline, pp.Process, pp.At, c.device)
			case !strings.Contains(pp.Error(), c.value):
				t.Errorf("%s inline=%v: %v, want the device's own panic %q", c.name, inline, pp.Value, c.value)
			}
			if r := m.Counters().Resumes; inline && r != 1 {
				t.Errorf("%s inline: %d resumes, want 1: the step did not run on the app's stack", c.name, r)
			}
			m.Stop()
		}
	}
}
