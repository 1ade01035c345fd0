// Package workload generates deterministic offered-load traffic on
// the simulated machine and measures how the system responds — the
// regime the paper's fixed micro/macrobenchmarks never enter.
//
// Generators run as ordinary simulated processes on top of the
// user-level messaging layer (internal/msg), so every arrival process
// composes with all five NI designs, the DMA comparator, every bus
// attachment, and both interconnect fabrics. Three arrival processes
// are modelled (params.ArrivalKind):
//
//   - open-loop Poisson: exponential inter-arrival gaps at a
//     configured per-node offered load, generated regardless of
//     completions — the process that exposes saturation;
//   - open-loop bursty (on/off MMPP): Poisson at a peak rate during
//     exponentially distributed ON periods, silent during OFF, same
//     long-run load;
//   - closed-loop: request/reply clients with think time, whose
//     offered load self-limits with system latency.
//
// Destinations are drawn from a Zipf distribution (node 0 hottest),
// sizes from a configurable mix. All randomness comes from one seed,
// and the measurement itself is free in simulated time, so a run is
// byte-for-byte reproducible.
//
// Latency telemetry is coordinated-omission-free: for the open loops
// each message is timed from its *intended* arrival instant (not from
// when a backlogged sender finally issued it) to handler dispatch at
// the destination, so sender-side queueing under overload shows up in
// the tail instead of vanishing. Closed-loop latency is the client's
// request/reply round trip, timed from the request's scheduled arrival.
package workload

import (
	"math"
	"runtime"
	"time"

	"repro/internal/apps"
	"repro/internal/params"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Workload-private active-message handler ids.
const (
	hOpen = 400 + iota // open-loop sink
	hReq               // closed-loop request
	hRep               // closed-loop reply
)

const (
	// pollQuantum is how long an idle open-loop node sleeps between
	// receive-drain passes; it bounds both the added delivery latency
	// and the event count of an idle node.
	pollQuantum = 256
	// serviceCycles is the receiver's per-message bookkeeping beyond
	// reading the payload (mirrors the bandwidth microbenchmark).
	serviceCycles = 40
	// replyBytes is the closed-loop reply payload.
	replyBytes = 64
	// popIssueBatch bounds how many due population arrivals a node
	// issues before draining replies again (see addClosed).
	popIssueBatch = 64
)

// Report is one measured workload run.
type Report struct {
	// OfferedMBps is the aggregate offered load (nodes × per-node);
	// for the closed loop, which self-limits, it equals GoodputMBps.
	OfferedMBps float64
	// GoodputMBps is the aggregate user payload delivered inside the
	// measurement window.
	GoodputMBps float64
	// Sent and Delivered count user messages over the whole run
	// (including warm-up; under overload Delivered lags Sent).
	Sent, Delivered uint64
	// Latency is the end-to-end latency distribution in cycles,
	// merged across nodes, measurement window only. Open loop:
	// intended-arrival to handler dispatch; closed loop: request to
	// reply dispatch.
	Latency sim.Histogram
	// NetDelivery is the fabric's own admission-to-delivery histogram
	// ("net.delivery"), whole run — the network-layer view under the
	// same load.
	NetDelivery sim.Histogram
	// Fault and transport telemetry, whole run; all zero when
	// cfg.Faults is inactive. Drops counts frames the injector
	// consumed, Retransmits and DupSuppressed the transport's recovery
	// work, Dead the frames written off after retry-budget exhaustion.
	Drops, Retransmits, DupSuppressed, Dead uint64
	// Recovery is the send-to-ack latency distribution of frames that
	// needed at least one retransmit ("net.recovery").
	Recovery sim.Histogram
}

// gen is one node's arrival-process state. Its sampling methods are
// the steady-state arrival path and must not allocate.
type gen struct {
	rng     *apps.Rand
	bursty  bool
	meanGap float64 // long-run cycles between arrivals
	peakGap float64 // bursty: gap during an ON period
	meanOn  float64 // bursty: mean ON length
	meanOff float64 // bursty: mean OFF length
	onLeft  float64 // bursty: remaining ON time
	think   float64 // closed loop: mean think time

	dstCDF  []float64 // shared cumulative destination weights
	sizes   []params.SizeWeight
	sizeSum int
}

// exp draws an exponential variate with the given mean.
func (g *gen) exp(mean float64) float64 {
	return -mean * math.Log(1-g.rng.Float())
}

// nextGap samples the next inter-arrival gap (≥ 1 cycle).
func (g *gen) nextGap() sim.Time {
	var gap float64
	if !g.bursty {
		gap = g.exp(g.meanGap)
	} else {
		for {
			d := g.exp(g.peakGap)
			if d <= g.onLeft {
				g.onLeft -= d
				gap += d
				break
			}
			// Burn the rest of the ON period, sit out an OFF period,
			// and start a fresh ON period.
			gap += g.onLeft + g.exp(g.meanOff)
			g.onLeft = g.exp(g.meanOn)
		}
	}
	if gap < 1 {
		return 1
	}
	return sim.Time(gap)
}

// pickDst draws a Zipf destination, excluding self by rejection. The
// retry bound guards against a degenerate CDF (params.MaxZipfS keeps
// the distribution sane, but a sampler must not be able to hang): if
// every draw lands on self, fall back to the next-hottest node.
func (g *gen) pickDst(self int) int {
	for tries := 0; tries < 64; tries++ {
		u := g.rng.Float()
		// Binary search the shared CDF.
		lo, hi := 0, len(g.dstCDF)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if g.dstCDF[mid] <= u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo != self {
			return lo
		}
	}
	return (self + 1) % len(g.dstCDF)
}

// pickSize draws a payload size from the mix.
func (g *gen) pickSize() int {
	w := g.rng.Intn(g.sizeSum)
	for _, s := range g.sizes {
		w -= s.Weight
		if w < 0 {
			return s.Bytes
		}
	}
	return g.sizes[len(g.sizes)-1].Bytes
}

// run holds one measurement's shared state.
type run struct {
	m       *scenario.Machine
	wl      params.Workload
	n       int
	gens    []*gen
	warmEnd sim.Time
	endAt   sim.Time
	hists   []sim.Histogram

	// Tallies are per-node (writer = the node's own shard) and summed
	// into the Report after the run; a node's handler bumps its own
	// slot, so no two shards share a counter.
	sent      []uint64
	delivered []uint64
	winBytes  []uint64

	// drainIdle is the generators' idle step, Endpoint.DrainIdle; the
	// tests swap in the plain drain-and-sleep loop it stands for.
	drainIdle func(ep *scenario.Endpoint, rule func(now sim.Time, drained int) (sleep, until sim.Time))
}

// zipfCDF builds the cumulative destination distribution: node d has
// weight 1/(d+1)^s.
func zipfCDF(n int, s float64) []float64 {
	w := make([]float64, n)
	var total float64
	for d := 0; d < n; d++ {
		w[d] = math.Pow(float64(d+1), -s)
		total += w[d]
	}
	var cum float64
	for d := 0; d < n; d++ {
		cum += w[d] / total
		w[d] = cum
	}
	w[n-1] = 1 // guard against rounding
	return w
}

// newRun builds the machine and per-node generators.
func newRun(cfg params.Config, warm, measure sim.Time) *run {
	wl := params.DefaultWorkload()
	if cfg.Workload != nil {
		wl = *cfg.Workload
	}
	if len(wl.Sizes) == 0 {
		wl.Sizes = params.DefaultWorkload().Sizes
	}
	if err := wl.Validate(); err != nil {
		panic(err)
	}
	m, err := scenario.Build(cfg)
	if err != nil {
		panic(err)
	}
	r := &run{
		m:         m,
		wl:        wl,
		n:         cfg.Nodes,
		warmEnd:   warm,
		endAt:     warm + measure,
		drainIdle: (*scenario.Endpoint).DrainIdle,
	}
	r.hists = make([]sim.Histogram, r.n)
	r.sent = make([]uint64, r.n)
	r.delivered = make([]uint64, r.n)
	r.winBytes = make([]uint64, r.n)
	cdf := zipfCDF(r.n, wl.ZipfS)
	sizeSum := 0
	for _, s := range wl.Sizes {
		sizeSum += s.Weight
	}
	// Per-node mean inter-arrival gap from the offered load:
	// bytes/cycle = MB/s ÷ CPUMHz.
	meanGap := wl.MeanBytes() * params.CPUMHz / wl.OfferedMBps
	for id := 0; id < r.n; id++ {
		g := &gen{
			rng:     apps.NewRand(wl.Seed ^ uint64(id+1)*0x9E3779B97F4A7C15),
			bursty:  wl.Arrival == params.ArrivalBursty,
			meanGap: meanGap,
			think:   float64(wl.ThinkCycles),
			dstCDF:  cdf,
			sizes:   wl.Sizes,
			sizeSum: sizeSum,
		}
		if g.bursty {
			g.peakGap = meanGap * wl.BurstOnFrac
			g.meanOn = wl.BurstOnCycles
			g.meanOff = wl.BurstOnCycles * (1 - wl.BurstOnFrac) / wl.BurstOnFrac
			g.onLeft = g.exp(g.meanOn)
		}
		r.gens = append(r.gens, g)
	}
	return r
}

// Run executes cfg's workload (cfg.Workload; nil uses
// params.DefaultWorkload) for warm + measure cycles and reports
// goodput and latency telemetry from the measurement window. The run
// is stopped at the horizon — under overload, backlogged messages
// simply never count — so a run's cost is bounded no matter how far
// past saturation the offered load is.
func Run(cfg params.Config, warm, measure sim.Time) Report {
	rep, _ := runMeasured(cfg, warm, measure, false)
	return rep
}

// RunTimed is Run plus the run phase's wall-clock seconds, measured
// from scenario start to horizon and excluding machine construction —
// at thousands of nodes building the nodes' caches, buses and NIs
// dominates setup, and the sharded-engine speedup canary must compare
// execution, not allocation. The collector is quiesced (one forced GC) before the
// clock starts, so a mark cycle triggered by construction garbage
// doesn't bleed into the timed window.
func RunTimed(cfg params.Config, warm, measure sim.Time) (Report, float64) {
	return runMeasured(cfg, warm, measure, true)
}

func runMeasured(cfg params.Config, warm, measure sim.Time, timed bool) (Report, float64) {
	r := newRun(cfg, warm, measure)
	defer r.m.Close()
	rep, wall, _ := r.execute(timed)
	return rep, wall
}

// execute adds the arrival programs, runs them to the horizon and
// reports the measurement, the run phase's wall-clock seconds when
// timed, and the scenario trace.
func (r *run) execute(timed bool) (Report, float64, *scenario.Trace) {
	sc := scenario.New()
	if r.wl.Arrival == params.ArrivalClosed {
		r.addClosed(sc)
	} else {
		r.addOpen(sc)
	}
	var start time.Time
	if timed {
		runtime.GC()
		start = time.Now()
	}
	tr := r.m.RunUntil(sc, r.endAt)
	wall := time.Since(start).Seconds()

	var sent, delivered, winBytes uint64
	for id := 0; id < r.n; id++ {
		sent += r.sent[id]
		delivered += r.delivered[id]
		winBytes += r.winBytes[id]
	}
	rep := Report{
		OfferedMBps:   r.wl.OfferedMBps * float64(r.n),
		Sent:          sent,
		Delivered:     delivered,
		GoodputMBps:   float64(winBytes) * params.CPUMHz / float64(r.endAt-r.warmEnd),
		NetDelivery:   tr.Histogram("net.delivery"),
		Drops:         tr.Counter("net.drops"),
		Retransmits:   tr.Counter("net.retransmits"),
		DupSuppressed: tr.Counter("net.dup_suppressed"),
		Dead:          tr.Counter("net.dead"),
		Recovery:      tr.Histogram("net.recovery"),
	}
	for id := range r.hists {
		rep.Latency.Merge(&r.hists[id])
	}
	if r.wl.Arrival == params.ArrivalClosed {
		rep.OfferedMBps = rep.GoodputMBps
	}
	return rep, wall, tr
}

// addOpen adds one open-loop program per node: it emits requests on
// its arrival schedule and drains arrivals between them.
func (r *run) addOpen(sc *scenario.Scenario) {
	for id := 0; id < r.n; id++ {
		at := id
		r.m.Endpoint(id).Handle(hOpen, func(d *scenario.Delivery) {
			// Consume the payload (the data ends up used in the
			// receiver's cache, as in the bandwidth microbenchmark).
			d.EP.Load(0x4000, d.Size)
			d.EP.Compute(serviceCycles)
			r.delivered[at]++
			now := d.EP.Clock()
			if now > r.warmEnd {
				r.hists[at].Record(now - d.Stamp)
				r.winBytes[at] += uint64(d.Size)
			}
		})
	}
	for id := 0; id < r.n; id++ {
		self := id
		g := r.gens[id]
		sc.At(id, func(ep *scenario.Endpoint) {
			next := ep.Clock() + g.nextGap()
			// After a drain the loop sleeps until the next arrival, at
			// most a quantum, and drains again while none is due.
			rule := func(now sim.Time, _ int) (sim.Time, sim.Time) {
				return openWait(next, now), min(next, r.endAt)
			}
			for ep.Clock() < r.endAt {
				if ep.Clock() >= next {
					dst := g.pickDst(self)
					size := g.pickSize()
					r.sent[self]++
					// The intended arrival rides in the frame as the
					// delivery's Stamp, the latency origin.
					ep.SendStamped(dst, hOpen, size, next)
					next += g.nextGap()
					continue
				}
				r.drainIdle(ep, rule)
			}
		})
	}
}

// openWait is the open loop's sleep after a drain that ends at now, with
// the next arrival due at next: up to that arrival, capped at a quantum.
// An arrival that came due during the drain or its handlers (next < now)
// wraps the unsigned difference, which the cap turns into a full
// quantum, so that arrival is issued up to pollQuantum late. Every
// reference digest and golden holds this overrun, so its fix waits for
// the next deliberate regeneration of them.
func openWait(next, now sim.Time) sim.Time { return min(next-now, pollQuantum) }

// closedWait is the closed loop's sleep after a drain that ends at now
// having consumed drained messages, with the next arrival due at next:
// none when the drain dispatched something, else up to that arrival,
// capped at a quantum. An arrival that came due during the drain
// (next <= now) gets the full quantum, so it is issued up to pollQuantum
// late — the same overrun as openWait's, kept for the same reason.
func closedWait(next, now sim.Time, drained int) sim.Time {
	if drained > 0 {
		return 0
	}
	w := sim.Time(pollQuantum)
	if next > now && next-now < w {
		w = next - now
	}
	return w
}

// popReq is one in-flight population request: the issuing client's
// weight (returned to the thinking pool on reply) and the intended
// arrival instant the round trip is timed from. Requests are recycled
// through a per-node sim.Pool, so the steady state allocates nothing.
type popReq struct {
	weight float64
	start  sim.Time
}

// addClosed adds the closed-loop servers and clients: one aggregated
// weighted population per node (see Population), so each node carries
// wl.Clients weighted clients behind a single arrival process, the
// per-arrival cost is O(log Clients) and a machine can carry millions
// of clients. One client per node is the population of one client of
// weight 1. Latency is coordinated-omission-free: a request is timed
// from its scheduled arrival instant even when the sender was
// backlogged, so sender-side queueing under overload lands in the tail.
func (r *run) addClosed(sc *scenario.Scenario) {
	set := NewClientSet(r.wl, r.wl.Clients)
	pops := make([]*Population, r.n)
	free := make([]sim.Pool[popReq], r.n)
	for id := 0; id < r.n; id++ {
		at := id
		ep := r.m.Endpoint(id)
		ep.Handle(hReq, func(d *scenario.Delivery) {
			d.EP.Load(0x4000, d.Size)
			d.EP.Compute(serviceCycles)
			r.delivered[at]++
			if d.EP.Clock() > r.warmEnd {
				r.winBytes[at] += uint64(d.Size)
			}
			d.EP.SendTo(d.Src, hRep, replyBytes, d.Payload)
		})
		ep.Handle(hRep, func(d *scenario.Delivery) {
			pr := d.Payload.(*popReq)
			now := d.EP.Clock()
			if now > r.warmEnd {
				r.hists[at].Record(now - pr.start)
			}
			pops[at].Return(pr.weight, now)
			free[at].Put(pr)
		})
	}
	for id := 0; id < r.n; id++ {
		self := id
		g := r.gens[id]
		sc.At(id, func(ep *scenario.Endpoint) {
			pop := set.Population(g.think, g.rng, ep.Clock())
			pops[self] = pop
			// After a drain that dispatched nothing the loop sleeps until
			// the next arrival, at most a quantum, and drains again while
			// none is due.
			rule := func(now sim.Time, drained int) (sim.Time, sim.Time) {
				return closedWait(pop.NextAt(), now, drained), min(pop.NextAt(), r.endAt)
			}
			for ep.Clock() < r.endAt {
				issued := false
				// Issue the arrivals that have come due — a blocked send
				// advances the clock, and the arrivals that backed up
				// behind it keep their scheduled start stamps. The batch
				// cap matters under deep overload: when arrivals come due
				// faster than sends complete, an uncapped loop would
				// never yield to Drain and no node would ever serve a
				// request.
				for b := 0; b < popIssueBatch && pop.NextAt() <= ep.Clock(); b++ {
					pr := free[self].Get()
					pr.start = pop.NextAt()
					pr.weight = pop.Take()
					r.sent[self]++
					ep.SendTo(g.pickDst(self), hReq, g.pickSize(), pr)
					issued = true
				}
				if issued {
					ep.Drain()
					continue
				}
				r.drainIdle(ep, rule)
			}
		})
	}
}
