package network

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Output-link direction indices at each torus router.
const (
	dirXPos = iota
	dirXNeg
	dirYPos
	dirYNeg
	numDirs
)

// pendTx is one fault-mode transmission in flight on a link: the
// degrade window makes per-message latency time-varying, so arrivals
// can complete out of FIFO order and each entry carries its own
// arrival time. Entries are kept in transmit order; the drain fn
// selects min-(at, transmit order), which is exactly the order the
// per-message events fire in.
type pendTx struct {
	m    *Msg
	next int
	at   sim.Time
}

// Torus is a W×H 2D torus with dimension-order (x then y) routing and
// store-and-forward switching. Each hop costs the link occupancy
// (serialisation) plus the hop latency; a busy link queues messages,
// which is where load-dependent latency comes from. End-to-end flow
// control is the same sliding window as the flat network; window
// credits return on a contention-free path in hop-count time (acks
// are a few bytes and are not modelled as consuming link bandwidth).
//
// Hot state is struct-of-arrays: every per-link quantity lives in a
// parallel index-addressed slice (li = node*numDirs+dir) instead of a
// per-link struct full of queue headers — busy flags, waiting-queue
// heads, flight queues — and routing reads precomputed tables rather
// than redoing coordinate arithmetic per hop.
//
// The event cadence (a release and an arrival per hop, both created
// at transmit time) is deliberately unchanged. Batched variants that
// collapse the pair into one self-draining event per link were built
// and measured (DESIGN.md §11): simulated timestamps stay exact, but the
// collapsed event necessarily allocates its sequence number at a
// different instant than the release it replaces, which flips
// (time, seq) tie order between same-cycle arrivals at contended
// links and drifts the pinned goldens (probe RTT moved ~5% under a
// saturating all-to-all background). Byte-identical goldens pin the
// cadence; the struct-of-arrays layout is where the fabric's cycles
// go instead.
type Torus struct {
	endpoints
	w, h      int
	hopLat    sim.Time
	occupancy sim.Time

	// Per-link SoA hot state, shared by both modes: busy flags, FIFO
	// waiting queues, and pre-built release callbacks. One busy byte
	// per link, not a packed bitset: a link's flag is touched only by
	// the shard owning its router, and a byte keeps it single-writer
	// where a shared bitset word would be a read-modify-write race
	// between shards.
	busy       []uint8
	queues     []sim.FIFO[*Msg]
	releaseFns []func()
	// flight[li] holds serialised messages in hop-latency flight;
	// constant per-link delay means arrivals fire in transmit order,
	// landed by the pre-built arriveFns (fault-free, unsharded path only).
	flight    []sim.FIFO[*Msg]
	arriveFns []func()
	// downstream[li] is the node on the far end of link li, and
	// routeDir[cur*n+dst] the dimension-order output direction
	// (-1 at the destination) — both precomputed so the per-hop path
	// does no coordinate arithmetic.
	downstream []int32
	routeDir   []int8

	// Fault-mode state, allocated by AttachFaults only. The degrade
	// window scales occupancy and latency per message, so arrivals can
	// complete out of FIFO order; they are carried in pending entries
	// drained by the pre-built faultArriveFns (no per-message
	// closures).
	pending        [][]pendTx
	faultArriveFns []func()

	hops      *sim.Counter
	linkWaits *sim.Counter
}

// NewTorus creates a 2D torus for n nodes, factored into the most
// nearly square W×H grid (params.TorusDims).
func NewTorus(e *sim.Engine, st *sim.Stats, n int) *Torus {
	w, h := params.TorusDims(n)
	t := &Torus{
		w:          w,
		h:          h,
		hopLat:     params.TorusHopLatency,
		occupancy:  params.TorusLinkOccupancy,
		busy:       make([]uint8, n*numDirs),
		flight:     make([]sim.FIFO[*Msg], n*numDirs),
		queues:     make([]sim.FIFO[*Msg], n*numDirs),
		releaseFns: make([]func(), n*numDirs),
		arriveFns:  make([]func(), n*numDirs),
	}
	t.init(e, st, n, func(m *Msg) sim.Time {
		return sim.Time(t.HopCount(m.Src, m.Dst)) * t.hopLat
	})
	t.hops = st.Counter("net.torus.hop")
	t.linkWaits = st.Counter("net.torus.link.wait")
	t.downstream = make([]int32, n*numDirs)
	for li := range t.downstream {
		t.downstream[li] = int32(t.neighbor(li/numDirs, li%numDirs))
		li := li
		t.releaseFns[li] = func() { t.release(li) }
		t.arriveFns[li] = func() { t.linkArrive(li) }
	}
	t.routeDir = make([]int8, n*n)
	for cur := 0; cur < n; cur++ {
		for dst := 0; dst < n; dst++ {
			t.routeDir[cur*n+dst] = int8(t.nextDir(cur, dst))
		}
	}
	return t
}

// Dims returns the torus width and height.
func (t *Torus) Dims() (w, h int) { return t.w, t.h }

// coords maps a node id to grid coordinates (row-major).
func (t *Torus) coords(id int) (x, y int) { return id % t.w, id / t.w }

// HopCount returns the dimension-order path length between two nodes
// (minimal in each dimension, wrapping around the torus).
func (t *Torus) HopCount(src, dst int) int {
	sx, sy := t.coords(src)
	dx, dy := t.coords(dst)
	fx := (dx - sx + t.w) % t.w
	if fx > t.w-fx {
		fx = t.w - fx
	}
	fy := (dy - sy + t.h) % t.h
	if fy > t.h-fy {
		fy = t.h - fy
	}
	return fx + fy
}

// nextDir returns the dimension-order output direction at node cur
// for a message to dst, or -1 when cur == dst. Ties between the two
// wrap directions go to the positive link. (Used to build routeDir;
// the per-hop path reads the table.)
func (t *Torus) nextDir(cur, dst int) int {
	cx, cy := t.coords(cur)
	dx, dy := t.coords(dst)
	if cx != dx {
		fwd := (dx - cx + t.w) % t.w
		if fwd <= t.w-fwd {
			return dirXPos
		}
		return dirXNeg
	}
	if cy != dy {
		fwd := (dy - cy + t.h) % t.h
		if fwd <= t.h-fwd {
			return dirYPos
		}
		return dirYNeg
	}
	return -1
}

// neighbor returns the node on the far end of node's dir output link.
func (t *Torus) neighbor(node, dir int) int {
	x, y := t.coords(node)
	switch dir {
	case dirXPos:
		x = (x + 1) % t.w
	case dirXNeg:
		x = (x - 1 + t.w) % t.w
	case dirYPos:
		y = (y + 1) % t.h
	case dirYNeg:
		y = (y - 1 + t.h) % t.h
	}
	return y*t.w + x
}

// AttachShards switches the torus to the sharded conservative-
// lookahead engine: link releases stay on the owning node's shard
// (claiming a link, queueing behind it, and freeing it are all local
// to its router), while link arrivals and cross-node window credits
// travel through the coordinator's deterministic-merge inboxes. The
// minimum cross event delay — a credit's one-hop latency — equals the
// hop latency, which is exactly the ShardSet's lookahead.
//
// Every link arrival is routed through the inboxes even when both
// routers share a shard: the canonical (time, key) merge order must
// not depend on where the shard boundaries fall, or the shard count
// would change results.
func (t *Torus) AttachShards(sh *sim.ShardSet) {
	t.attachShards(sh)
	sh.SetDispatch(func(ev *sim.CrossEvent) {
		if ev.Kind == xkAck {
			slot := int(ev.Node)*t.n + int(ev.Aux)
			t.inFlight[slot]--
			t.windowFree[slot].Signal()
			return
		}
		t.forward(ev.Msg.(*Msg), int(ev.Node))
	})
}

// AttachFaults hooks the injector in and switches the links to
// per-message arrival bookkeeping (see the fault-mode fields).
func (t *Torus) AttachFaults(in *fault.Injector) {
	t.endpoints.AttachFaults(in)
	n := t.n
	t.pending = make([][]pendTx, n*numDirs)
	t.faultArriveFns = make([]func(), n*numDirs)
	for li := 0; li < n*numDirs; li++ {
		li := li
		t.faultArriveFns[li] = func() { t.faultArrive(li) }
	}
}

// Inject sends m, blocking the calling (device) process while the
// sliding window to m.Dst is full, then starts the hop-by-hop
// traversal at the source router.
func (t *Torus) Inject(p *sim.Process, m *Msg) {
	t.admit(p, m)
	t.forward(m, m.Src)
}

// forward routes m one step from node: eject if this is the
// destination, otherwise claim (or queue on) the dimension-order
// output link.
func (t *Torus) forward(m *Msg, node int) {
	dir := t.routeDir[node*t.n+m.Dst]
	if dir < 0 {
		t.arrive(m)
		return
	}
	li := node*numDirs + int(dir)
	if t.busy[li] != 0 {
		t.linkWaits.Inc()
		if t.rec != nil {
			t.noteMsg(node, trace.KLinkWait, int32(li), m)
		}
		t.queues[li].Push(m)
		return
	}
	t.transmit(li, m)
}

// transmit serialises m onto link li: the link is held for the
// occupancy, and m reaches the next router occupancy+hopLat later.
// Both events are created here, at transmit time, in release-then-
// arrive order — the cadence the goldens pin (see the type comment).
func (t *Torus) transmit(li int, m *Msg) {
	t.busy[li] = 1
	t.hops.Inc()
	if t.rec != nil {
		t.noteMsg(li/numDirs, trace.KLinkTx, int32(li), m)
	}
	if t.inj != nil {
		t.faultTransmit(li, m)
		return
	}
	if t.sh != nil {
		// Sharded: the release is local to the link's router; the
		// arrival crosses to the downstream router's shard carrying the
		// message itself (the flight queue cannot be popped from another
		// shard). Transmit runs on the owner's shard, so its engine is
		// the current one.
		eng := t.sh.Engine(li / numDirs)
		eng.Schedule(t.occupancy, t.releaseFns[li])
		t.sh.Cross(li/numDirs, sim.CrossEvent{
			At:   eng.Now() + t.occupancy + t.hopLat,
			Key:  m.xkey << 1,
			Kind: xkArrive,
			Node: t.downstream[li],
			Msg:  m,
		})
		return
	}
	t.flight[li].Push(m)
	t.eng.Schedule(t.occupancy, t.releaseFns[li])
	t.eng.Schedule(t.occupancy+t.hopLat, t.arriveFns[li])
}

// release frees link li after a serialisation completes and starts
// the next queued message, if any.
func (t *Torus) release(li int) {
	t.busy[li] = 0
	if t.rec != nil {
		t.rec.Note(li/numDirs, trace.KLinkFree, 0, int32(li), -1, -1, 0, 0)
	}
	if t.queues[li].Len() > 0 {
		t.transmit(li, t.queues[li].Pop())
	}
}

// linkArrive lands the oldest in-flight message on link li at the
// downstream router and routes it onward.
func (t *Torus) linkArrive(li int) {
	t.forward(t.flight[li].Pop(), int(t.downstream[li]))
}

// Links returns the output-link count (node count × four directions)
// — link index li = node*4 + direction.
func (t *Torus) Links() int { return t.n * numDirs }

// LinkBusy reports whether link li is currently serialising a message
// (the trace sampler's occupancy gauge).
func (t *Torus) LinkBusy(li int) bool { return t.busy[li] != 0 }

// LinkQueueLen reports how many messages wait behind link li (the
// trace sampler's queue-depth gauge).
func (t *Torus) LinkQueueLen(li int) int { return t.queues[li].Len() }

// LinkName renders link li's stable label, e.g. "n3.y+".
func (t *Torus) LinkName(li int) string {
	dirs := [numDirs]string{"x+", "x-", "y+", "y-"}
	return fmt.Sprintf("n%d.%s", li/numDirs, dirs[li%numDirs])
}

// faultTransmit is transmit's fault-mode tail: the degrade window
// scales occupancy and hop latency per message, so the flight queue
// (which relies on arrivals firing in transmit order) cannot be used;
// the arrival is carried in a pending entry drained by the pre-built
// per-link fn — no per-message closure.
func (t *Torus) faultTransmit(li int, m *Msg) {
	eng := t.engAt(li / numDirs)
	now := eng.Now()
	occ := t.inj.OccupancyAt(now, t.occupancy)
	next := int(t.downstream[li])
	eng.Schedule(occ, t.releaseFns[li])
	at := now + occ + t.inj.LatencyAt(now, t.hopLat)
	if t.sh != nil {
		// Sharded fault mode: the arrival crosses like the fault-free
		// path; the destination shard's (time, key) pending heap plays
		// the per-link pending list's role.
		t.sh.Cross(li/numDirs, sim.CrossEvent{
			At: at, Key: m.xkey << 1, Kind: xkArrive,
			Node: t.downstream[li], Msg: m,
		})
		return
	}
	t.pending[li] = append(t.pending[li], pendTx{m, next, at})
	eng.ScheduleAt(at, t.faultArriveFns[li])
}

// faultArrive lands the pending transmission whose arrival event is
// firing now: the one with the minimum arrival time, oldest first on
// ties — the (time, seq) order its per-message events fire in.
func (t *Torus) faultArrive(li int) {
	pend := t.pending[li]
	best := 0
	for i := 1; i < len(pend); i++ {
		if pend[i].at < pend[best].at {
			best = i
		}
	}
	e := pend[best]
	copy(pend[best:], pend[best+1:])
	pend[len(pend)-1] = pendTx{}
	t.pending[li] = pend[:len(pend)-1]
	t.forward(e.m, e.next)
}
