package machine

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/msg"
	"repro/internal/params"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/device_pin.golden from the current model")

// pinCell is one device-order pin configuration: a machine and how its
// receivers behave.
type pinCell struct {
	name string
	cfg  params.Config
	// lazy is how many cycles each receiver computes before it starts
	// polling, so arrivals pile up behind a full receive queue.
	lazy sim.Time
	// sizes is the payload-size cycle every sender walks through.
	sizes []int
	// senders is how many processes on each node share its sends (0
	// means one), so several can post uncached stores at once.
	senders int
	// check asserts the cell reached the condition it is there for.
	check func(t *testing.T, m *Machine)
}

// counterSum totals a per-node counter over every node.
func counterSum(m *Machine, suffix string) uint64 {
	var n uint64
	for id := range m.Nodes {
		n += m.Stats.Get(fmt.Sprintf("node%d.%s", id, suffix))
	}
	return n
}

// wantCounter returns a check that suffix counted at least once.
func wantCounter(suffix string) func(t *testing.T, m *Machine) {
	return func(t *testing.T, m *Machine) {
		if counterSum(m, suffix) == 0 {
			t.Errorf("%s never counted: the cell does not reach its condition", suffix)
		}
	}
}

// pinCells lists every NI kind on each bus location params.Validate
// admits, the four CQ ablations, the three full-buffer conditions a
// device waits on — a receive queue the processor is slow to drain, a
// full store buffer and a full I/O bridge — and a MEMBAR that waits
// for the store buffer.
func pinCells() []pinCell {
	mixed := []int{8, 56, 120, 244, 600}
	var cells []pinCell
	for _, ni := range append(append([]params.NIKind{}, params.AllNIs...), params.DMA) {
		for _, b := range []params.BusKind{params.CacheBus, params.MemoryBus, params.IOBus} {
			cfg := params.Config{Nodes: 4, NI: ni, Bus: b}
			if cfg.Validate() != nil {
				continue
			}
			cells = append(cells, pinCell{name: cfg.Name(), cfg: cfg, sizes: mixed})
		}
	}
	cq := params.Config{Nodes: 4, NI: params.CNI16Q, Bus: params.MemoryBus}
	for _, ab := range []struct {
		name string
		set  func(*params.Config)
	}{
		{"NoLazyPointers", func(c *params.Config) { c.NoLazyPointers = true }},
		{"NoValidBits", func(c *params.Config) { c.NoValidBits = true }},
		{"NoSenseReverse", func(c *params.Config) { c.NoSenseReverse = true }},
		{"UpdateProtocol", func(c *params.Config) { c.UpdateProtocol = true }},
	} {
		for _, ni := range []params.NIKind{params.CNI16Q, params.CNI16Qm} {
			cfg := cq
			cfg.NI = ni
			ab.set(&cfg)
			cells = append(cells, pinCell{name: cfg.Name() + " " + ab.name, cfg: cfg, sizes: mixed})
		}
	}
	for _, b := range []params.BusKind{params.MemoryBus, params.IOBus} {
		cfg := cq
		cfg.Bus = b
		cells = append(cells, pinCell{
			name: cfg.Name() + " recv-queue-full", cfg: cfg, lazy: 40_000, sizes: mixed,
			check: wantCounter("ni.recv.qfull"),
		})
	}
	// CNI16Qm's queue holds every message here; a lazy receiver
	// overflows its 16-block device cache to memory instead.
	qm := cq
	qm.NI = params.CNI16Qm
	cells = append(cells, pinCell{
		name: qm.Name() + " recv-overflow", cfg: qm, lazy: 40_000, sizes: mixed,
		check: wantCounter("ni.recv.overflowWB"),
	})
	for _, ni := range []params.NIKind{params.NI2w, params.CNI4, params.DMA} {
		cfg := params.Config{Nodes: 4, NI: ni, Bus: params.IOBus}
		cells = append(cells, pinCell{
			name: cfg.Name() + " lazy-receiver", cfg: cfg, lazy: 40_000, sizes: mixed,
		})
	}
	cells = append(cells, pinCell{
		name:  "NI2w@memory store-buffer-full",
		cfg:   params.Config{Nodes: 4, NI: params.NI2w, Bus: params.MemoryBus},
		sizes: []int{params.MaxPayloadBytes}, check: wantCounter("cpu.sb.full"),
	}, pinCell{
		// Three senders per node post descriptors back to back: each
		// one's status load waits out the buffer, but their three
		// descriptor stores and go store land together.
		name:  "DMA@io store-buffer-full",
		cfg:   params.Config{Nodes: 4, NI: params.DMA, Bus: params.IOBus},
		sizes: mixed, senders: 3, check: wantCounter("cpu.sb.full"),
	}, pinCell{
		// A lazy receiver takes its backlog back to back; each
		// receive's pop store is still crossing the memory bus into
		// the I/O bridge when its MEMBAR checks the buffer.
		name: "CNI4@io membar-stall",
		cfg:  params.Config{Nodes: 4, NI: params.CNI4, Bus: params.IOBus},
		lazy: 40_000, sizes: []int{8}, check: wantCounter("cpu.membar.stall"),
	}, pinCell{
		name:  "NI2w@io bridge-full",
		cfg:   params.Config{Nodes: 4, NI: params.NI2w, Bus: params.IOBus},
		sizes: []int{params.MaxPayloadBytes},
		check: func(t *testing.T, m *Machine) {
			var waits uint64
			for _, n := range m.Nodes {
				waits += n.Fabric.BridgeFullWaits()
			}
			if waits == 0 {
				t.Error("no posted write waited for bridge space: the cell does not fill the bridge")
			}
		},
	}, pinCell{
		// A paused NI neither delivers nor injects: its devices wait
		// out the pause at the fabric edge.
		name: "CNI16Q@memory paused",
		cfg: params.Config{Nodes: 4, NI: params.CNI16Q, Bus: params.MemoryBus, Faults: params.Faults{
			Seed: 1, Pauses: []params.FaultPause{{Node: 1, From: 2000, Until: 9000}},
		}},
		sizes: mixed, check: func(t *testing.T, m *Machine) {
			if m.Stats.Get("net.paused") == 0 {
				t.Error("no injection or delivery met the pause")
			}
		},
	}, pinCell{
		name:  "CNI512Q@memory torus",
		cfg:   params.Config{Nodes: 4, NI: params.CNI512Q, Bus: params.MemoryBus, Topology: params.TopoTorus},
		sizes: mixed,
	})
	return cells
}

// runPinCell runs c's traffic: every node sends perPeer messages to
// each of the two nodes after it, walking through c.sizes, then polls
// until it has received all it is owed. It returns the cell's pin
// lines.
func runPinCell(t *testing.T, c pinCell) string {
	t.Helper()
	const perPeer = 12
	m := New(c.cfg)
	defer m.Stop()
	const h = 1
	n := len(m.Nodes)
	got := make([]int, n)
	bytes := make([]int, n)
	for id, nd := range m.Nodes {
		id := id
		nd.Msgr.Register(h, func(ctx msg.Context) {
			got[id]++
			bytes[id] += ctx.Size
		})
	}
	want := 2 * perPeer
	done := make([]sim.Time, n)
	// Sender j of each node sends rounds j, j+senders, …; sender 0
	// then receives.
	senders := max(c.senders, 1)
	send := func(p *sim.Process, nd *Node, id, first int) {
		for i := first; i < perPeer; i += senders {
			for k := 1; k <= 2; k++ {
				nd.Msgr.Send(p, (id+k)%n, h, c.sizes[(i+k+id)%len(c.sizes)], nil)
			}
		}
	}
	for id := range m.Nodes {
		m.Spawn(id, func(p *sim.Process, nd *Node) {
			send(p, nd, id, 0)
			if c.lazy > 0 {
				nd.CPU.Compute(p, c.lazy)
			}
			nd.Msgr.PollUntil(p, func() bool { return got[id] == want })
			done[id] = p.Now()
		})
	}
	for id := range m.Nodes {
		for j := 1; j < senders; j++ {
			m.Spawn(id, func(p *sim.Process, nd *Node) { send(p, nd, id, j) })
		}
	}
	end := m.Run(sim.Time(1) << 40)
	for id := range got {
		if got[id] != want {
			t.Fatalf("%s: node %d received %d of %d messages", c.name, id, got[id], want)
		}
	}
	if c.check != nil {
		c.check(t, m)
	}
	return fmt.Sprintf("%s: end=%d scheduled=%d done=%v bytes=%v\n  stats sha256 %x\n",
		c.name, end, m.Eng.Scheduled(), done, bytes, sha256.Sum256([]byte(m.Stats.String())))
}

// TestDeviceOrderPinned pins the event order of every NI device, the
// store-buffer drain and the I/O bridge: per cell the events
// scheduled, the final cycle, each node's finish time and bytes
// received, and a sha256 of every counter. The golden was generated
// while the devices ran as coroutine processes; it must stay
// byte-identical however they are driven. Regenerate it only for a
// deliberate timing-model change.
func TestDeviceOrderPinned(t *testing.T) {
	t.Parallel()
	var out strings.Builder
	for _, c := range pinCells() {
		out.WriteString(runPinCell(t, c))
	}
	path := filepath.Join("testdata", "device_pin.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("device pin diverges from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}
