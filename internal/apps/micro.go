package apps

import (
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/params"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Microbenchmark handler ids.
const (
	hPing = HApp + iota
	hPong
	hStream
	hIncast
	hExchange
	hBgSink
)

// RoundTrip measures process-to-process round-trip latency (§5.1.1,
// Fig 6) for size-byte user messages on a two-node machine built for
// cfg: node 0 sends, node 1's handler echoes the same payload size
// back. Returns the steady-state average round-trip in cycles.
//
// As in the paper, the measurement includes the messaging-layer
// overhead of copying between the NI and user-level buffers: data
// starts in the sender's cache and ends in the receiver's cache.
func RoundTrip(cfg params.Config, size, rounds int) sim.Time {
	rtt, _ := RoundTripDetail(cfg, size, rounds)
	return rtt
}

// RoundTripDetail is RoundTrip plus the total memory-bus occupancy of
// the measured rounds (both nodes), for occupancy-sensitive
// comparisons such as the CQ-optimisation ablation: some of the
// optimisations buy bus cycles rather than critical-path latency.
func RoundTripDetail(cfg params.Config, size, rounds int) (sim.Time, uint64) {
	cfg.Nodes = 2
	return pingPong(cfg, 1, size, rounds, nil)
}

// Bandwidth measures sustainable process-to-process bandwidth (§5.1.2,
// Fig 7): node 0 streams messages of the given payload size, node 1
// consumes as fast as it can. Returns MB/s of user payload delivered
// (steady state: a warmup prefix is excluded).
//
// The consumer arrives a little late (§5.1.2: the send rate exceeds
// the reception rate), letting the stream pile into the NI — which is
// what differentiates the designs' buffering.
func Bandwidth(cfg params.Config, size, messages int) float64 {
	cfg.Nodes = 2
	return stream(cfg, 1, size, messages, 4000, nil)
}

// background is a congestion background (see add): the compute gap
// between background sends and the traffic pattern.
type background struct {
	gap     int
	pattern BgPattern
}

// pingPong is the ping-pong loop behind RoundTrip and ProbeRTT: node 0
// sends warmup+rounds size-byte pings to dst, polling for each pong,
// dst's handler echoes the payload size back, and dst polls until the
// last pong has landed. bg, when non-nil, is appended after the probe
// programs, so the simulated schedule keeps the probe's wake ordering,
// and runs until node 0 is done. Returns the steady-state round trip
// in cycles and the memory-bus cycles per round, summed over nodes.
func pingPong(cfg params.Config, dst, size, rounds int, bg *background) (sim.Time, uint64) {
	m := build(cfg)
	defer m.Close()

	pongs := 0
	m.Endpoint(dst).Handle(hPing, func(d *scenario.Delivery) {
		d.EP.SendTo(d.Src, hPong, d.Size, nil)
	})
	m.Endpoint(0).Handle(hPong, func(d *scenario.Delivery) { pongs++ })

	const warmup = 2
	done := false
	var start, end sim.Time
	var busAtStart, busAtEnd sim.Time
	sc := scenario.New().
		At(0, func(ep *scenario.Endpoint) {
			for r := 0; r < warmup+rounds; r++ {
				if r == warmup {
					start = ep.Clock()
					busAtStart = m.BusOccupancy()
				}
				ep.SendTo(dst, hPing, size, nil)
				want := r + 1
				ep.PollUntil(func() bool { return pongs == want })
			}
			end = ep.Clock()
			busAtEnd = m.BusOccupancy()
			done = true
		}).
		At(dst, func(ep *scenario.Endpoint) {
			ep.PollUntil(func() bool { return pongs == warmup+rounds })
		})
	if bg != nil {
		bg.add(m, sc, &done)
	}
	m.Run(sc)
	if StatsDump != nil {
		StatsDump(cfg, m.Stats())
	}
	return (end - start) / sim.Time(rounds), uint64(busAtEnd-busAtStart) / uint64(rounds)
}

// stream is the stream loop behind Bandwidth and ProbeBandwidth: node
// 0 sends warmup+messages size-byte messages to dst back to back, and
// dst starts polling delay cycles in, reading each delivered payload
// (the paper's measurement ends with data "in the receiving
// processor's cache" — and used) plus per-message bookkeeping. bg is
// as in pingPong, running until dst has the last message. Returns MB/s
// of user payload delivered after a one-fifth warmup prefix.
func stream(cfg params.Config, dst, size, messages int, delay sim.Time, bg *background) float64 {
	m := build(cfg)
	defer m.Close()

	warmup := max(1, messages/5) // start must fire even for tiny runs
	received := 0
	done := false
	var start, end sim.Time
	m.Endpoint(dst).Handle(hStream, func(d *scenario.Delivery) {
		d.EP.Load(0x4000, d.Size)
		d.EP.Compute(40)
		received++
		if received == warmup {
			start = d.EP.Clock()
		}
		if received == warmup+messages {
			end = d.EP.Clock()
		}
	})
	sc := scenario.New().
		At(0, func(ep *scenario.Endpoint) {
			for i := 0; i < warmup+messages; i++ {
				ep.SendTo(dst, hStream, size, nil)
			}
		}).
		At(dst, func(ep *scenario.Endpoint) {
			if delay > 0 {
				ep.Compute(delay)
			}
			ep.PollUntil(func() bool { return received == warmup+messages })
			done = true
		})
	if bg != nil {
		bg.add(m, sc, &done)
	}
	m.Run(sc)
	if end <= start {
		return 0
	}
	bytes := float64(size) * float64(messages)
	seconds := float64(end-start) / (params.CPUMHz * 1e6)
	return bytes / seconds / 1e6
}

// ProbeDst returns the congestion probe's far endpoint: the node at
// the torus antipode of node 0 (maximum dimension-order hop count).
// The same node id is used under the flat topology so the two fabrics
// measure the identical traffic pattern.
func ProbeDst(nodes int) int { return antipode(0, nodes) }

// BgPattern selects the background traffic shape for ProbeRTT.
type BgPattern int

const (
	// BgHotspot aims every background sender at one hotspot node that
	// sits on the probe's dimension-order path (one hop before the
	// probe destination, in its column), so the converging incast
	// flows share links with the probe.
	BgHotspot BgPattern = iota
	// BgAllToAll pairs every background node with its torus antipode
	// (an involutive permutation), the classic uniform worst case for
	// dimension-order routing: every flow crosses the fabric's full
	// diameter, loading links in every row and column including the
	// probe's.
	BgAllToAll
)

func (b BgPattern) String() string {
	if b == BgAllToAll {
		return "all-to-all"
	}
	return "hotspot"
}

// antipode returns the node diagonally opposite id on the torus.
func antipode(id, nodes int) int {
	w, h := params.TorusDims(nodes)
	x, y := id%w, id/w
	return ((y+h/2)%h)*w + (x+w/2)%w
}

// HotspotNode returns BgHotspot's common destination: one hop before
// the probe destination in its torus column.
func HotspotNode(nodes int) int {
	w, _ := params.TorusDims(nodes)
	return ProbeDst(nodes) - w
}

// add appends the congestion background traffic to sc on every node
// except the probe endpoints (and, for BgHotspot, the hotspot sink):
// each sender streams full-payload messages at the given gap until
// *done flips. Append it after the probe programs so the simulated
// schedule keeps the probe's wake ordering. A negative gap adds no
// senders.
func (bg *background) add(m *scenario.Machine, sc *scenario.Scenario, done *bool) {
	nodes := m.Nodes()
	probeDst := ProbeDst(nodes)
	hot := HotspotNode(nodes)
	bgAlive := 0
	sending := make([]bool, nodes)
	targets := make([]int, 0, nodes)
	if bg.gap >= 0 {
		for id := 1; id < nodes; id++ {
			if id == probeDst || (bg.pattern == BgHotspot && id == hot) {
				continue
			}
			target := hot
			if bg.pattern == BgAllToAll {
				target = antipode(id, nodes)
				if target == 0 || target == probeDst || target == id {
					continue // the probe pair maps to itself; skip partners of excluded nodes
				}
			}
			m.Endpoint(id).Handle(hBgSink, func(d *scenario.Delivery) {})
			sending[id] = true
			targets = append(targets, target)
			bgAlive++
			sc.At(id, func(ep *scenario.Endpoint) {
				for !*done {
					ep.SendTo(target, hBgSink, params.MaxPayloadBytes, nil)
					ep.Drain()
					ep.Compute(sim.Time(bg.gap))
				}
				// Keep draining after the measurement so no partner is
				// left blocked on a full window mid-send; the last
				// sender to finish releases everyone.
				bgAlive--
				ep.PollUntil(func() bool { return bgAlive == 0 })
			})
		}
		// On tori with an odd dimension the antipode map is not an
		// involution, so a node skipped as a sender can still be some
		// other node's target; without a drain its NI fills and that
		// sender wedges on the window forever. Add a pure sink on
		// every such orphaned target. (On even-dimensioned tori —
		// including the 16-node harness configuration — this set is
		// empty and the simulated schedule is untouched.)
		for _, tgt := range targets {
			if sending[tgt] || (bg.pattern == BgHotspot && tgt == hot) {
				continue
			}
			sending[tgt] = true // drain at most once
			m.Endpoint(tgt).Handle(hBgSink, func(d *scenario.Delivery) {})
			sc.At(tgt, func(ep *scenario.Endpoint) {
				ep.PollUntil(func() bool { return *done && bgAlive == 0 })
			})
		}
	}
	// The hotspot sink keeps draining until every background sender
	// has finished its final (possibly flow-controlled) send.
	if bg.pattern == BgHotspot {
		m.Endpoint(hot).Handle(hBgSink, func(d *scenario.Delivery) {})
		sc.At(hot, func(ep *scenario.Endpoint) {
			ep.PollUntil(func() bool { return *done && bgAlive == 0 })
		})
	}
}

// ProbeRTT measures round-trip latency between node 0 and the far
// node ProbeDst(n) while the remaining nodes generate background load
// in the given pattern. gap is the compute delay in cycles between
// background sends — smaller gap, higher offered load; a negative gap
// disables the background entirely.
//
// The probe endpoints take no part in the background traffic, so
// under the flat (contention-free) interconnect the probe RTT is
// load-independent by construction; under the torus the background
// flows share links with the probe path and queue ahead of it, so the
// RTT grows with offered load.
func ProbeRTT(cfg params.Config, size, rounds, gap int, pattern BgPattern) sim.Time {
	if cfg.Nodes < 4 {
		panic("apps: ProbeRTT needs at least 4 nodes")
	}
	rtt, _ := pingPong(cfg, ProbeDst(cfg.Nodes), size, rounds, &background{gap, pattern})
	return rtt
}

// ProbeBandwidth measures the delivered bandwidth of a victim stream
// (node 0 to ProbeDst, messages of the given payload size) while the
// remaining nodes generate background load in the given pattern at
// the given gap, as in ProbeRTT. Returns MB/s of user payload in
// steady state. Under the flat interconnect the background cannot
// touch the stream; under the torus shared links throttle it.
func ProbeBandwidth(cfg params.Config, size, messages, gap int, pattern BgPattern) float64 {
	if cfg.Nodes < 4 {
		panic("apps: ProbeBandwidth needs at least 4 nodes")
	}
	return stream(cfg, ProbeDst(cfg.Nodes), size, messages, 0, &background{gap, pattern})
}

// HotspotIncast streams perSender size-byte messages from every other
// node into node 0 simultaneously and returns the aggregate delivered
// payload bandwidth in MB/s at the sink, measured after a one-fifth
// warmup. On the torus the flows converge on the few links into node
// 0's router; on the flat network only the sink's NI and bus limit
// delivery.
func HotspotIncast(cfg params.Config, size, perSender int) float64 {
	m := build(cfg)
	defer m.Close()
	total := (cfg.Nodes - 1) * perSender
	warm := total / 5
	if warm < 1 {
		warm = 1 // start must fire even for tiny runs
	}
	received := 0
	var start, end sim.Time
	m.Endpoint(0).Handle(hIncast, func(d *scenario.Delivery) {
		d.EP.Load(0x4000, d.Size)
		received++
		if received == warm {
			start = d.EP.Clock()
		}
		if received == total {
			end = d.EP.Clock()
		}
	})
	sc := scenario.New()
	for id := 1; id < cfg.Nodes; id++ {
		sc.At(id, func(ep *scenario.Endpoint) {
			for i := 0; i < perSender; i++ {
				ep.SendTo(0, hIncast, size, nil)
			}
		})
	}
	sc.At(0, func(ep *scenario.Endpoint) {
		ep.PollUntil(func() bool { return received == total })
	})
	m.Run(sc)
	if end <= start {
		return 0
	}
	bytes := float64(size) * float64(total-warm)
	seconds := float64(end-start) / (params.CPUMHz * 1e6)
	return bytes / seconds / 1e6
}

// AllToAllExchange measures a personalised all-to-all: each round,
// every node sends one size-byte message to every other node (rotated
// start offsets) and polls until it holds the full round from every
// peer. Returns average cycles per round in steady state as seen by
// node 0. The torus serialises the exchange over its links; the flat
// network admits every flow at once.
func AllToAllExchange(cfg params.Config, size, rounds int) sim.Time {
	m := build(cfg)
	defer m.Close()
	n := cfg.Nodes
	recv := make([]int, n)
	for id := 0; id < n; id++ {
		at := id
		m.Endpoint(id).Handle(hExchange, func(d *scenario.Delivery) { recv[at]++ })
	}
	const warmup = 1
	var start, end sim.Time
	sc := scenario.New()
	for id := 0; id < n; id++ {
		self := id
		sc.At(id, func(ep *scenario.Endpoint) {
			for r := 0; r < warmup+rounds; r++ {
				if self == 0 && r == warmup {
					start = ep.Clock()
				}
				for off := 1; off < n; off++ {
					ep.SendTo((self+off)%n, hExchange, size, nil)
				}
				want := (r + 1) * (n - 1)
				ep.PollUntil(func() bool { return recv[self] >= want })
			}
			if self == 0 {
				end = ep.Clock()
			}
		})
	}
	m.Run(sc)
	if StatsDump != nil {
		StatsDump(cfg, m.Stats())
	}
	return (end - start) / sim.Time(rounds)
}

// LocalQueueBandwidth computes the paper's Fig 7 normalisation bound:
// the maximum bandwidth two processors on the same coherent memory bus
// sustain through a local cachable memory queue (Fig 2). With the
// Table 2 costs this lands near the paper's 144 MB/s.
func LocalQueueBandwidth() float64 {
	eng := sim.NewEngine()
	st := sim.NewStats()
	fab := bus.NewFabric(eng, st, "lq", false)
	mem := cache.NewMemory(fab, "lq.mem")
	fab.AddRegion(bus.Region{Name: "dram", Base: 0, Size: 1 << 30, Home: mem, Loc: params.MemoryBus, Cachable: true})
	sender := cache.New(eng, st, fab, "lq.s", params.ProcCacheBytes)
	receiver := cache.New(eng, st, fab, "lq.r", params.ProcCacheBytes)

	const blocks = 256
	var start, end sim.Time
	eng.Spawn("lq", func(p *sim.Process) {
		for b := uint64(0); b < blocks; b++ { // warm to steady state
			sender.Store(p, b*params.BlockBytes)
			receiver.Load(p, b*params.BlockBytes)
		}
		start = p.Now()
		for b := uint64(0); b < blocks; b++ {
			sender.Store(p, b*params.BlockBytes)
			receiver.Load(p, b*params.BlockBytes)
		}
		end = p.Now()
	})
	eng.RunAll()
	eng.Stop()
	bytes := float64(blocks * params.BlockBytes)
	seconds := float64(end-start) / (params.CPUMHz * 1e6)
	return bytes / seconds / 1e6
}
