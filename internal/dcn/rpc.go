package dcn

import (
	"fmt"
	"math"

	"repro/internal/apps"
	"repro/internal/params"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	// rpcPollQuantum bounds an idle front-end's sleep between drain
	// passes (mirrors internal/workload's poll quantum).
	rpcPollQuantum = 256
	// rpcIssueBatch bounds how many due arrivals a front-end issues
	// before draining replies again, so deep overload cannot starve
	// the serving side (see workload.addClosed).
	rpcIssueBatch = 64
	// rpcRetryCycles is how long a front-end sleeps before retrying a
	// refused leg admission when it has nothing to drain.
	rpcRetryCycles = 16
)

// Tier describes one hop of a fan-out call: every caller at this hop
// contacts Fanout servers, each of which spends an exponentially
// distributed service time (mean ServiceCycles) before fanning out to
// the next tier (if any) and eventually replying.
type Tier struct {
	// Fanout is how many backends each caller touches (>= 1).
	Fanout int
	// ServiceCycles is the mean exponential per-request service time
	// charged at the server before it replies or fans out.
	ServiceCycles int
	// ReqBytes and RepBytes size the request and reply payloads.
	ReqBytes, RepBytes int
}

// RPCSpec configures one RPC fan-out measurement.
type RPCSpec struct {
	// Clients is the total simulated client population, spread evenly
	// across the machine's front-ends. Think of it as concurrent users:
	// each client thinks (mean ThinkCycles), issues one root call, and
	// waits for its completion.
	Clients int
	// ThinkCycles is the mean client think time; Clients/ThinkCycles
	// sets the machine-wide offered call rate.
	ThinkCycles int
	// ClientZipfS skews per-client weights (client 0 hottest) exactly
	// like params.Workload.ClientZipfS; 0 is a uniform population.
	ClientZipfS float64
	// Tiers is the fan-out shape, root outward. Tiers[0] is the
	// front-end's own fan-out; later entries nest beneath it.
	Tiers []Tier
	// Hedge is the probability a root call is hedge-eligible: if an
	// eligible call is still incomplete HedgeAfterCycles after issue,
	// the front-end duplicates every outstanding leg to a fresh backend
	// and the first reply per leg wins (the tail-at-scale "hedged
	// request"). 0 disables hedging; must stay below 1.
	Hedge float64
	// HedgeAfterCycles is the hedge trigger delay.
	HedgeAfterCycles int
	// MaxInflight caps concurrent root calls per front-end; arrivals
	// beyond it queue (FIFO) and their queueing delay counts toward
	// latency — the overload/goodput regime.
	MaxInflight int
	// Seed feeds every random stream (arrivals, backends, service
	// times); same seed, same bytes.
	Seed uint64
}

// DefaultRPCSpec is a million-client fan-out at moderate load: with
// the default think time the population offers 100 KRPS machine-wide,
// a fraction of even the weakest NI's measured serving capacity, so
// tails reflect the straggler join rather than saturation.
func DefaultRPCSpec() RPCSpec {
	return RPCSpec{
		Clients:          1_000_000,
		ThinkCycles:      2_000_000_000,
		Tiers:            []Tier{{Fanout: 4, ServiceCycles: 100, ReqBytes: 64, RepBytes: 128}},
		Hedge:            0,
		HedgeAfterCycles: 20_000,
		// A small per-front-end cap: the measured goodput-maximising
		// point under deep overload. Larger caps push more outstanding
		// legs than the fabric can carry and congestion queueing, not
		// service, dominates (goodput collapses instead of plateauing).
		MaxInflight: 4,
		Seed:        1,
	}
}

// IncastSpec is the storage-read preset built on the fan-in
// primitive: tiny requests to fanout servers, bulk chunk replies that
// all converge on the caller at once.
func IncastSpec(fanout, chunkBytes int) RPCSpec {
	s := DefaultRPCSpec()
	s.Tiers = []Tier{{Fanout: fanout, ServiceCycles: 200, ReqBytes: 64, RepBytes: chunkBytes}}
	return s
}

// Validate rejects malformed specs.
func (s RPCSpec) Validate() error {
	if s.Clients < 1 {
		return fmt.Errorf("dcn: Clients must be >= 1, have %d", s.Clients)
	}
	if s.ThinkCycles < 1 {
		return fmt.Errorf("dcn: ThinkCycles must be >= 1, have %d", s.ThinkCycles)
	}
	if s.ClientZipfS < 0 || s.ClientZipfS > params.MaxZipfS {
		return fmt.Errorf("dcn: ClientZipfS must be in [0, %v], have %v", float64(params.MaxZipfS), s.ClientZipfS)
	}
	if len(s.Tiers) == 0 {
		return fmt.Errorf("dcn: at least one tier is required")
	}
	for i, t := range s.Tiers {
		if t.Fanout < 1 {
			return fmt.Errorf("dcn: tier %d fanout must be >= 1, have %d", i, t.Fanout)
		}
		if t.ServiceCycles < 0 {
			return fmt.Errorf("dcn: tier %d service cycles must be >= 0, have %d", i, t.ServiceCycles)
		}
		if t.ReqBytes < 1 || t.RepBytes < 1 {
			return fmt.Errorf("dcn: tier %d payload sizes must be >= 1, have req %d rep %d", i, t.ReqBytes, t.RepBytes)
		}
	}
	if s.Hedge < 0 || s.Hedge >= 1 {
		return fmt.Errorf("dcn: Hedge must be in [0, 1), have %v", s.Hedge)
	}
	if s.Hedge > 0 && s.HedgeAfterCycles < 1 {
		return fmt.Errorf("dcn: HedgeAfterCycles must be >= 1 when hedging, have %d", s.HedgeAfterCycles)
	}
	if s.MaxInflight < 1 {
		return fmt.Errorf("dcn: MaxInflight must be >= 1, have %d", s.MaxInflight)
	}
	return nil
}

// RPCReport is one measured RPC run.
type RPCReport struct {
	// OfferedKRPS and GoodputKRPS are machine-wide root-call arrival
	// and completion rates over the measurement window, in thousands
	// of calls per second at params.CPUMHz. Under overload Goodput
	// plateaus while Offered keeps climbing.
	OfferedKRPS, GoodputKRPS float64
	// Issued and Completed count root calls over the whole run.
	Issued, Completed uint64
	// Queued counts arrivals that waited behind the MaxInflight cap.
	Queued uint64
	// Hedges and HedgeWins count duplicate legs sent and the ones
	// whose duplicate replied first.
	Hedges, HedgeWins uint64
	// Latency is the root-call distribution (intended arrival to last
	// sub-reply, so front-end queueing counts), measurement window
	// only.
	Latency sim.Histogram
	// Straggler is the root join's first-to-last sub-reply gap — the
	// tail-at-scale cost of waiting for the slowest of k.
	Straggler sim.Histogram
}

// rpcCall is one root call's join state at its front-end.
type rpcCall struct {
	weight    float64  // population weight held while in flight
	start     sim.Time // intended arrival instant (queue wait included)
	deadline  sim.Time // hedge trigger, hedge-eligible calls only
	eligible  bool
	remaining int
	firstAt   sim.Time
	lastAt    sim.Time
	legs      []*rootLeg
}

// rootLeg is one root sub-request; replies echo it back, and the done
// flag makes the first (original or hedged) reply win.
type rootLeg struct {
	call     *rpcCall
	done     bool
	hedged   bool
	hedgeDst int
}

// midCall is a mid-tier server's pending join: it served a hop-`hop`
// request from parentSrc and replies upward (echoing parent) once its
// own fan-out has fully reported.
type midCall struct {
	hop       int
	parentSrc int
	parent    any
	remaining int
}

// rpcNode is one front-end's runtime state.
type rpcNode struct {
	self     int
	rng      *apps.Rand
	pop      *workload.Population
	inflight int
	queued   sim.FIFO[queuedCall]
	hedgeQ   []*rpcCall // deadline-ordered outstanding eligible calls
	hedgeAt  int        // scan position into hedgeQ
}

// queuedCall is an arrival parked behind the MaxInflight cap.
type queuedCall struct {
	weight float64
	start  sim.Time
}

// rpcRun holds one measurement's shared state.
type rpcRun struct {
	m       *scenario.Machine
	spec    RPCSpec
	n       int
	nodes   []*rpcNode
	warmEnd sim.Time
	endAt   sim.Time

	offeredWin, completedWin uint64

	lat, strag *sim.Histogram

	cCalls, cCompleted, cQueued *sim.Counter
	cFanout, cHedges, cWins     *sim.Counter
}

// exp draws an exponential variate with the given mean from rng.
func expDraw(rng *apps.Rand, mean float64) sim.Time {
	if mean <= 0 {
		return 0
	}
	g := -mean * math.Log(1-rng.Float())
	if g < 1 {
		return 1
	}
	return sim.Time(g)
}

// pickBackend draws a uniform backend excluding self.
func pickBackend(rng *apps.Rand, n, self int) int {
	d := rng.Intn(n - 1)
	if d >= self {
		d++
	}
	return d
}

// RunRPC executes spec's RPC fan-out workload on cfg's machine for
// warm + measure cycles and reports SLO telemetry from the
// measurement window. Latency histograms are also recorded into the
// machine's stats as "rpc.latency" and "rpc.straggler", and rpc.*
// counters track call/fan-out/hedge volume, so registry and trace
// plumbing see them for free.
func RunRPC(cfg params.Config, spec RPCSpec, warm, measure sim.Time) (RPCReport, error) {
	m, err := scenario.Build(cfg)
	if err != nil {
		return RPCReport{}, err
	}
	defer m.Close()
	return RunRPCOn(m, spec, warm, measure)
}

// RunRPCOn is RunRPC on a caller-built (fresh) machine; the caller
// keeps ownership, so trace recorders and counters stay inspectable
// after the run, and Close is the caller's job.
func RunRPCOn(m *scenario.Machine, spec RPCSpec, warm, measure sim.Time) (RPCReport, error) {
	if err := spec.Validate(); err != nil {
		return RPCReport{}, err
	}
	if m.Nodes() < 2 {
		return RPCReport{}, fmt.Errorf("dcn: RPC fan-out needs at least 2 nodes, have %d", m.Nodes())
	}
	start := m.Clock()
	r := &rpcRun{
		m:       m,
		spec:    spec,
		n:       m.Nodes(),
		warmEnd: start + warm,
		endAt:   start + warm + measure,
		lat:     m.Stats().Histogram("rpc.latency"),
		strag:   m.Stats().Histogram("rpc.straggler"),
	}
	st := m.Stats()
	r.cCalls = st.Counter("rpc.calls")
	r.cCompleted = st.Counter("rpc.completed")
	r.cQueued = st.Counter("rpc.queued")
	r.cFanout = st.Counter("rpc.fanout")
	r.cHedges = st.Counter("rpc.hedges")
	r.cWins = st.Counter("rpc.hedge_wins")

	// Every node is both a front-end and a backend.
	sets := nodeClientSets(spec, r.n)
	sc := scenario.New()
	for id := 0; id < r.n; id++ {
		nd := &rpcNode{
			self: id,
			rng:  apps.NewRand(spec.Seed ^ uint64(id+1)*0x9E3779B97F4A7C15),
		}
		r.nodes = append(r.nodes, nd)
		set := sets[id]
		r.installHandlers(id)
		self := id
		sc.At(id, func(ep *scenario.Endpoint) {
			nd.pop = set.Population(float64(spec.ThinkCycles), nd.rng, ep.Clock())
			r.frontEndLoop(ep, nd, self)
		})
	}
	m.RunUntil(sc, r.endAt)

	// Credit the arrival backlog: under deep overload a front-end can
	// end the run with intended arrivals it never got to take, and
	// offered load is a statement about demand, not about how much of
	// it the admission loop kept up with.
	for _, nd := range r.nodes {
		for nd.pop.NextAt() <= r.endAt {
			if nd.pop.NextAt() > r.warmEnd {
				r.offeredWin++
			}
			nd.pop.Take()
		}
	}

	window := float64(r.endAt - r.warmEnd)
	rep := RPCReport{
		OfferedKRPS: float64(r.offeredWin) * params.CPUMHz * 1000 / window,
		GoodputKRPS: float64(r.completedWin) * params.CPUMHz * 1000 / window,
		Issued:      r.cCalls.Value(),
		Completed:   r.cCompleted.Value(),
		Queued:      r.cQueued.Value(),
		Hedges:      r.cHedges.Value(),
		HedgeWins:   r.cWins.Value(),
		Latency:     *r.lat,
		Straggler:   *r.strag,
	}
	return rep, nil
}

// nodeClientSets spreads spec's client population across n
// front-ends, perNode or perNode+1 clients each (at least one), and
// returns each node's client set. Nodes with equal counts share one
// read-only set, so there are at most two.
func nodeClientSets(spec RPCSpec, n int) []*workload.ClientSet {
	perNode, extra := spec.Clients/n, spec.Clients%n
	wl := params.Workload{ClientZipfS: spec.ClientZipfS}
	byCount := map[int]*workload.ClientSet{}
	sets := make([]*workload.ClientSet, n)
	for id := range sets {
		clients := perNode
		if id < extra {
			clients++
		}
		clients = max(clients, 1)
		if byCount[clients] == nil {
			byCount[clients] = workload.NewClientSet(wl, clients)
		}
		sets[id] = byCount[clients]
	}
	return sets
}

// installHandlers wires the server and join handlers on node id.
func (r *rpcRun) installHandlers(id int) {
	nd := r.nodes[id]
	ep := r.m.Endpoint(id)
	ep.Handle(hRPCReq, func(d *scenario.Delivery) {
		var hop int
		if q, ok := d.Payload.(*midCall); ok {
			hop = q.hop + 1
		}
		t := r.spec.Tiers[hop]
		d.EP.Load(0x4000, d.Size)
		if t.ServiceCycles > 0 {
			d.EP.Compute(expDraw(nd.rng, float64(t.ServiceCycles)))
		}
		if hop+1 < len(r.spec.Tiers) {
			next := r.spec.Tiers[hop+1]
			mc := &midCall{hop: hop, parentSrc: d.Src, parent: d.Payload, remaining: next.Fanout}
			for j := 0; j < next.Fanout; j++ {
				r.cFanout.Inc()
				d.EP.SendTo(pickBackend(nd.rng, r.n, nd.self), hRPCReq, next.ReqBytes, mc)
			}
			return
		}
		d.EP.SendTo(d.Src, hRPCRep, t.RepBytes, d.Payload)
	})
	ep.Handle(hRPCRep, func(d *scenario.Delivery) {
		switch q := d.Payload.(type) {
		case *rootLeg:
			if q.done {
				return // the other copy of a hedged leg already won
			}
			q.done = true
			if q.hedged && d.Src == q.hedgeDst {
				r.cWins.Inc()
			}
			c := q.call
			now := d.EP.Clock()
			if c.remaining == len(c.legs) {
				c.firstAt = now
			}
			c.lastAt = now
			c.remaining--
			if c.remaining == 0 {
				r.completeCall(nd, c, now)
			}
		case *midCall:
			q.remaining--
			if q.remaining == 0 {
				d.EP.SendTo(q.parentSrc, hRPCRep, r.spec.Tiers[q.hop].RepBytes, q.parent)
			}
		}
	})
}

// completeCall retires a finished root call: telemetry and weight
// return. Backfill from the overload queue happens in the front-end
// loop — reply handlers run during drains, and issuing from inside a
// dispatch would nest dispatch again.
func (r *rpcRun) completeCall(nd *rpcNode, c *rpcCall, now sim.Time) {
	r.cCompleted.Inc()
	if now > r.warmEnd {
		r.completedWin++
		r.lat.Record(now - c.start)
		r.strag.Record(c.lastAt - c.firstAt)
	}
	nd.pop.Return(c.weight, now)
	nd.inflight--
}

// sendLeg transmits one root sub-request from the front-end loop.
// Unlike a handler's blocking SendTo, a refused admission drains (and
// so dispatches) incoming traffic before retrying: a congested
// front-end keeps serving replies and its own backend work instead of
// wedging the machine — the software analogue of §4.1 flow control
// one level up.
func (r *rpcRun) sendLeg(ep *scenario.Endpoint, dst, bytes int, leg *rootLeg) {
	for !ep.TrySendTo(dst, hRPCReq, bytes, leg) {
		if ep.Drain() == 0 {
			ep.Sleep(rpcRetryCycles)
		}
	}
}

// issueCall fans a root call out to Tiers[0].Fanout backends. Only
// the front-end loop calls it (sendLeg dispatches while blocked).
func (r *rpcRun) issueCall(ep *scenario.Endpoint, nd *rpcNode, weight float64, start sim.Time) {
	t := r.spec.Tiers[0]
	c := &rpcCall{
		weight:    weight,
		start:     start,
		remaining: t.Fanout,
		legs:      make([]*rootLeg, t.Fanout),
	}
	if r.spec.Hedge > 0 && nd.rng.Float() < r.spec.Hedge {
		c.eligible = true
		c.deadline = ep.Clock() + sim.Time(r.spec.HedgeAfterCycles)
		nd.hedgeQ = append(nd.hedgeQ, c)
	}
	r.cCalls.Inc()
	nd.inflight++
	for j := 0; j < t.Fanout; j++ {
		leg := &rootLeg{call: c}
		c.legs[j] = leg
		r.cFanout.Inc()
		r.sendLeg(ep, pickBackend(nd.rng, r.n, nd.self), t.ReqBytes, leg)
	}
}

// fireHedges duplicates every outstanding leg of calls whose hedge
// deadline has passed; each leg hedges at most once and the first
// reply wins.
func (r *rpcRun) fireHedges(ep *scenario.Endpoint, nd *rpcNode) bool {
	fired := false
	for nd.hedgeAt < len(nd.hedgeQ) && nd.hedgeQ[nd.hedgeAt].deadline <= ep.Clock() {
		c := nd.hedgeQ[nd.hedgeAt]
		nd.hedgeAt++
		if c.remaining == 0 {
			continue
		}
		t := r.spec.Tiers[0]
		for _, leg := range c.legs {
			if leg.done || leg.hedged {
				continue
			}
			leg.hedged = true
			leg.hedgeDst = pickBackend(nd.rng, r.n, nd.self)
			r.cHedges.Inc()
			fired = true
			r.sendLeg(ep, leg.hedgeDst, t.ReqBytes, leg)
		}
	}
	// Compact the scanned prefix occasionally so the queue stays small.
	if nd.hedgeAt > 1024 && nd.hedgeAt*2 >= len(nd.hedgeQ) {
		n := copy(nd.hedgeQ, nd.hedgeQ[nd.hedgeAt:])
		nd.hedgeQ = nd.hedgeQ[:n]
		nd.hedgeAt = 0
	}
	return fired
}

// frontEndLoop is one node's main program: admit client arrivals,
// fire due hedges, and serve traffic until the horizon.
func (r *rpcRun) frontEndLoop(ep *scenario.Endpoint, nd *rpcNode, self int) {
	for ep.Clock() < r.endAt {
		progress := false
		for b := 0; b < rpcIssueBatch && nd.pop.NextAt() <= ep.Clock(); b++ {
			start := nd.pop.NextAt()
			w := nd.pop.Take()
			if start > r.warmEnd {
				r.offeredWin++
			}
			progress = true
			if nd.inflight >= r.spec.MaxInflight {
				r.cQueued.Inc()
				nd.queued.Push(queuedCall{weight: w, start: start})
				continue
			}
			r.issueCall(ep, nd, w, start)
		}
		if r.fireHedges(ep, nd) {
			progress = true
		}
		if ep.Drain() > 0 {
			progress = true
		}
		// Backfill overload-queued arrivals freed up by completions the
		// drain just dispatched (issuing never nests inside a handler).
		for nd.inflight < r.spec.MaxInflight && nd.queued.Len() > 0 {
			qc := nd.queued.Pop()
			r.issueCall(ep, nd, qc.weight, qc.start)
			progress = true
		}
		if progress {
			continue
		}
		// An arrival that came due during the drain (next <= now) gets
		// the full quantum, so it is admitted up to rpcPollQuantum late,
		// as in the workload generators' closed loop. Every reference
		// digest and golden holds this overrun, so its fix waits for the
		// next deliberate regeneration of them.
		wait := sim.Time(rpcPollQuantum)
		if next := nd.pop.NextAt(); next > ep.Clock() && next-ep.Clock() < wait {
			wait = next - ep.Clock()
		}
		if nd.hedgeAt < len(nd.hedgeQ) {
			if d := nd.hedgeQ[nd.hedgeAt].deadline - ep.Clock(); d > 0 && d < wait {
				wait = d
			}
		}
		if wait > 0 {
			ep.Sleep(wait)
		}
	}
}
