package workload

import (
	"math"

	"repro/internal/apps"
	"repro/internal/params"
	"repro/internal/sim"
)

// Population aggregates one node's N weighted closed-loop clients into
// a single arrival process, so a node can carry thousands — or, across
// a machine, millions — of simulated clients without one simulated
// session per client.
//
// The model: each client thinks for an exponentially distributed time
// (mean ThinkCycles ÷ its weight) and then issues one request, waiting
// for the reply before thinking again. Exponential think times are
// memoryless, so the aggregate arrival process while total weight W is
// thinking is Poisson with rate W/think — the population keeps one
// next-arrival timestamp instead of per-client timers, and each
// arrival draws the issuing client size-biased from the weight CDF.
// Issued weight leaves the thinking pool until Return, so the
// population self-limits exactly like individually simulated clients:
// as replies lag, less weight is thinking and the arrival rate falls.
//
// One deliberate aggregation: the issuing client is drawn from the
// full population, not the currently thinking subset. Tracking the
// thinking subset would cost per-client state again; with populations
// that are large relative to the in-flight count the bias is
// negligible, and the weight conservation above keeps the aggregate
// rate exact either way. All draws come from the node's seeded
// generator, so runs are byte-for-byte reproducible.
//
// A Population is a few words per node; the client count shows up
// only in the shared ClientSet, at 0 B per client for a uniform
// population and 8 B per client for a skewed one.
type Population struct {
	set       *ClientSet
	think     float64
	rng       *apps.Rand
	thinkingW float64
	nextAt    sim.Time
}

// ClientSet is the shared shape of a client population, built from the
// population spec rather than a per-client vector. A uniform set stores
// nothing per client; a Zipf or tiled set stores only its weight CDF
// (8 B per client) and recomputes a drawn client's weight from the
// spec. Build one per distinct client count and hand it to every
// node's Population — it is read-only after construction, so sharing
// costs nothing and a million-client set is stored at most once.
type ClientSet struct {
	n     int
	tiled []float64 // the spec's ClientWeights, tiled across clients
	zipfS float64
	cdf   []float64 // nil for a uniform set
	total float64
}

// NewClientSet builds the population shape of wl's spec at clients
// clients: the tiled ClientWeights vector when set, else
// Zipf(ClientZipfS) weights (client 0 hottest), else a uniform
// population of unit weights.
func NewClientSet(wl params.Workload, clients int) *ClientSet {
	s := &ClientSet{n: clients, tiled: wl.ClientWeights, zipfS: wl.ClientZipfS}
	if len(s.tiled) == 0 && s.zipfS == 0 {
		s.total = float64(clients) // exactly the sum of clients ones
		return s
	}
	s.cdf = make([]float64, clients)
	for i := range s.cdf {
		s.cdf[i] = s.weight(i)
		s.total += s.cdf[i]
	}
	cum := 0.0
	for i, w := range s.cdf {
		cum += w / s.total
		s.cdf[i] = cum
	}
	if clients > 0 {
		s.cdf[clients-1] = 1 // guard against rounding
	}
	return s
}

// weight returns client i's weight under the spec.
func (s *ClientSet) weight(i int) float64 {
	switch {
	case len(s.tiled) > 0:
		return s.tiled[i%len(s.tiled)]
	case s.zipfS > 0:
		return math.Pow(float64(i+1), -s.zipfS)
	}
	return 1
}

// Clients returns the population size.
func (s *ClientSet) Clients() int { return s.n }

// Population binds one node's arrival state to the shared set. think
// is the mean think time of a unit-weight client; the first arrival is
// scheduled from now.
func (s *ClientSet) Population(think float64, rng *apps.Rand, now sim.Time) *Population {
	p := &Population{set: s, think: think, rng: rng, thinkingW: s.total, nextAt: sim.Forever}
	p.schedule(now)
	return p
}

// gap draws the next inter-arrival gap at the current thinking rate.
func (p *Population) gap() sim.Time {
	g := -p.think / p.thinkingW * math.Log(1-p.rng.Float())
	if g < 1 {
		return 1
	}
	return sim.Time(g)
}

// schedule sets the next arrival from now, or parks the process when
// no weight is thinking (every client is awaiting a reply).
func (p *Population) schedule(now sim.Time) {
	if p.thinkingW <= 0 {
		p.nextAt = sim.Forever
		return
	}
	p.nextAt = now + p.gap()
}

// NextAt returns the next client arrival instant (sim.Forever while
// the whole population is awaiting replies).
func (p *Population) NextAt() sim.Time { return p.nextAt }

// Take commits the arrival due at NextAt: it draws the issuing client
// size-biased from the weight CDF, removes that weight from the
// thinking pool, schedules the following arrival, and returns the
// issued weight (the caller hands it back via Return when the reply
// lands). Take must only be called when NextAt is due; the steady
// state path does not allocate.
func (p *Population) Take() float64 {
	u := p.rng.Float() // drawn for a uniform set too: the stream must not move
	w := 1.0
	if cdf := p.set.cdf; cdf != nil {
		lo, hi := 0, len(cdf)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] <= u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		w = p.set.weight(lo)
	}
	at := p.nextAt
	p.thinkingW -= w
	if p.thinkingW < 0 {
		p.thinkingW = 0
	}
	p.schedule(at)
	return w
}

// Return hands an issued client's weight back to the thinking pool
// when its reply has been handled; if the population was fully parked
// this restarts the arrival process from now.
func (p *Population) Return(w float64, now sim.Time) {
	p.thinkingW += w
	if p.thinkingW > p.set.total {
		p.thinkingW = p.set.total
	}
	if p.nextAt == sim.Forever {
		p.schedule(now)
	}
}
