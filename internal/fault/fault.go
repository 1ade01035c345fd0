// Package fault is the deterministic, seeded fault-injection layer.
// An Injector is built once per machine (only when the configuration
// actually injects faults — params.Faults.Injects) and hooked into
// the interconnect's shared endpoints core, so every fabric (flat,
// torus, and anything added later) gets the same fault model for
// free:
//
//   - per-message drop / corrupt / duplicate / delay decisions, drawn
//     at the destination fabric edge from a fault-private RNG stream;
//   - a time-windowed link degradation (latency ×k, bandwidth ÷k)
//     consulted by the fabrics' transit models;
//   - per-node pause and crash schedules consulted at the fabric's
//     injection and delivery edges.
//
// Determinism: the injector's RNG is seeded from params.Faults.Seed
// alone and is consulted only on the fault path, so it can neither
// perturb nor observe the workload generators' streams — two runs
// with the same seeds are byte-identical, and changing the fault seed
// never changes what the workload offered.
package fault

import (
	"repro/internal/params"
	"repro/internal/sim"
)

// Plan is the per-message fault decision, drawn once per network
// message at the destination edge. At most one fault fires.
type Plan struct {
	Drop    bool
	Corrupt bool
	Dup     bool
	// Delay is the extra in-flight time of a delay-selected message
	// (0 = none): it lands behind messages injected after it.
	Delay sim.Time
}

// Injector is one machine's fault source. It is consulted from event
// callbacks and device processes only (never concurrently), like
// every other simulator component. It holds no clock: every
// time-dependent query takes the caller's now, the clock of the
// engine owning the node it asks about.
type Injector struct {
	f   params.Faults
	rng uint64 // xorshift64* state, fault-private

	// rngs, when non-nil (sharded machines), replaces the single rng
	// with one independent stream per destination node: per-message
	// plans are drawn at the destination edge, so per-destination
	// streams make each node's draw sequence a function of its own
	// delivery order alone — deterministic for any shard count, and
	// race-free across shards. Serial machines keep the single stream
	// byte-identically.
	rngs []uint64

	// Per-node schedules, resolved to index-addressed slices so the
	// per-delivery checks are branch-plus-load, not list walks.
	pauseFrom, pauseUntil []sim.Time // earliest pending pause window
	pauses                [][]params.FaultPause
	crashAt               []sim.Time // sim.Forever = never

	drops      *sim.Counter
	corrupted  *sim.Counter
	dups       *sim.Counter
	delayed    *sim.Counter
	paused     *sim.Counter
	crashDrops *sim.Counter
}

// New builds an injector for an n-node machine. The caller has
// validated f (params.Config.Validate).
func New(st *sim.Stats, n int, f params.Faults) *Injector {
	seed := f.Seed
	if seed == 0 {
		seed = 1
	}
	in := &Injector{
		f: f,
		// Mix the seed so nearby seeds start in distant states, and
		// with a constant distinct from the workload generators'
		// (apps.NewRand remaps through the raw seed; the fault stream
		// must differ even for an identical seed value).
		rng:        seed*0xA24BAED4963EE407 + 0x9FB21C651E98DF25,
		pauseFrom:  make([]sim.Time, n),
		pauseUntil: make([]sim.Time, n),
		pauses:     make([][]params.FaultPause, n),
		crashAt:    make([]sim.Time, n),
		drops:      st.Counter("net.drops"),
		corrupted:  st.Counter("net.corrupted"),
		dups:       st.Counter("net.dups"),
		delayed:    st.Counter("net.delayed"),
		paused:     st.Counter("net.paused"),
		crashDrops: st.Counter("net.crash.drops"),
	}
	for i := range in.crashAt {
		in.crashAt[i] = sim.Forever
	}
	for _, c := range f.Crashes {
		if at := sim.Time(c.At); at < in.crashAt[c.Node] {
			in.crashAt[c.Node] = at
		}
	}
	for _, p := range f.Pauses {
		in.pauses[p.Node] = append(in.pauses[p.Node], p)
	}
	for node := range in.pauses {
		in.nextPause(node)
	}
	return in
}

// nextPause loads node's earliest not-yet-expired pause window into
// the flat lookup slices (and removes it from the pending list).
func (in *Injector) nextPause(node int) {
	in.pauseFrom[node], in.pauseUntil[node] = 0, 0
	best := -1
	for i, p := range in.pauses[node] {
		if best < 0 || p.From < in.pauses[node][best].From {
			best = i
		}
	}
	if best < 0 {
		return
	}
	p := in.pauses[node][best]
	in.pauses[node] = append(in.pauses[node][:best], in.pauses[node][best+1:]...)
	in.pauseFrom[node], in.pauseUntil[node] = sim.Time(p.From), sim.Time(p.Until)
}

// Shard switches the injector to per-destination RNG streams for the
// sharded engine (see the rngs field). Call before any draw.
func (in *Injector) Shard() {
	seed := in.f.Seed
	if seed == 0 {
		seed = 1
	}
	in.rngs = make([]uint64, len(in.crashAt))
	for d := range in.rngs {
		// Per-destination stream: the same mix as the shared stream,
		// further split by a destination-salted multiplier so nearby
		// nodes start in distant states.
		in.rngs[d] = (seed+uint64(d)*0x9E3779B97F4A7C15)*0xA24BAED4963EE407 + 0x9FB21C651E98DF25
	}
}

// step advances one xorshift64* state and returns a draw in [0, 1).
func step(s *uint64) float64 {
	*s ^= *s >> 12
	*s ^= *s << 25
	*s ^= *s >> 27
	return float64((*s*0x2545F4914F6CDD1D)>>11) / float64(1<<53)
}

// randAt returns the next fault draw for a message arriving at dst:
// dst's own stream on a sharded machine, the shared stream otherwise.
func (in *Injector) randAt(dst int) float64 {
	if in.rngs != nil {
		return step(&in.rngs[dst])
	}
	return step(&in.rng)
}

// Plan draws the per-message fault decision for a (src, dst) network
// message arriving now. The probability knobs are checked in a fixed
// order and each consumes a draw only when its knob is set, so a
// configuration's draw sequence is stable.
func (in *Injector) Plan(src, dst int) (pl Plan) {
	f := &in.f
	if f.DropProb > 0 && in.randAt(dst) < f.DropProb {
		pl.Drop = true
		in.drops.Inc()
		return pl
	}
	if f.CorruptProb > 0 && in.randAt(dst) < f.CorruptProb {
		pl.Corrupt = true
		in.corrupted.Inc()
		return pl
	}
	if f.DupProb > 0 && in.randAt(dst) < f.DupProb {
		pl.Dup = true
		in.dups.Inc()
		return pl
	}
	if f.DelayProb > 0 && in.randAt(dst) < f.DelayProb {
		pl.Delay = sim.Time(f.Delay())
		in.delayed.Inc()
	}
	return pl
}

// inDegradeAt reports whether now falls in the degraded-link window.
func (in *Injector) inDegradeAt(now sim.Time) bool {
	return now >= sim.Time(in.f.DegradeFrom) && now < sim.Time(in.f.DegradeUntil)
}

// LatencyAt scales a transit latency by the degraded-window multiplier
// when the window is open at now (the observing shard's clock).
func (in *Injector) LatencyAt(now, d sim.Time) sim.Time {
	if in.inDegradeAt(now) {
		return sim.Time(float64(d) * in.f.LatencyX())
	}
	return d
}

// OccupancyAt scales a link serialisation time by the degraded-window
// bandwidth divisor when the window is open at now.
func (in *Injector) OccupancyAt(now, d sim.Time) sim.Time {
	if in.inDegradeAt(now) {
		return sim.Time(float64(d) * in.f.BandwidthX())
	}
	return d
}

// PausedAt reports whether node's NI is inside a pause window at now
// (the clock of the shard executing node — pause state is only ever
// consulted from node's own shard). Expired windows are retired as a
// side effect, so the flat lookup stays O(1) per call.
func (in *Injector) PausedAt(node int, now sim.Time) bool {
	for in.pauseUntil[node] != 0 && now >= in.pauseUntil[node] {
		in.nextPause(node)
	}
	return in.pauseUntil[node] != 0 && now >= in.pauseFrom[node]
}

// PauseEnd returns when node's current pause window closes. Only
// meaningful right after PausedAt(node, now) returned true.
func (in *Injector) PauseEnd(node int) sim.Time { return in.pauseUntil[node] }

// CrashedAt reports whether node's NI is dead at now (the observing
// shard's clock; crash times are immutable after construction, so any
// shard may ask).
func (in *Injector) CrashedAt(node int, now sim.Time) bool { return now >= in.crashAt[node] }

// NoteCrashDrop counts a message dropped because an end of its path
// crashed; the fabric edge calls it alongside the drop.
func (in *Injector) NoteCrashDrop() {
	in.crashDrops.Inc()
	in.drops.Inc()
}

// NotePaused counts a delivery stall caused by a paused destination.
func (in *Injector) NotePaused() { in.paused.Inc() }
