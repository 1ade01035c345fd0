package network

import (
	"fmt"

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
// heads, flight queues. Routing computes each hop's direction from the
// two nodes' coordinates, so no state grows with node pairs.
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

	// Per-link SoA hot state: busy flags, FIFO waiting queues, and
	// pre-built release callbacks. One busy byte per link, not a packed
	// bitset: a link's flag is touched only by the shard owning its
	// router, and a byte keeps it single-writer where a shared bitset
	// word would be a read-modify-write race between shards.
	busy       []uint8
	queues     []sim.FIFO[*Msg]
	releaseFns []func()
	// flight[li] holds serialised messages in hop-latency flight in
	// arrival order, landed by the pre-built arriveFns (serial machines
	// only; sharded ones carry the message in the cross event).
	flight    []sim.TimedFIFO[*Msg]
	arriveFns []func()
	// downstream[li] is the node on the far end of link li.
	downstream []int32

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
		flight:     make([]sim.TimedFIFO[*Msg], n*numDirs),
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
	return t
}

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
// wrap directions go to the positive link.
func (t *Torus) nextDir(cur, dst int) int {
	cx, cy := t.coords(cur)
	dx, dy := t.coords(dst)
	if cx != dx {
		return wrapDir(dx-cx, t.w, dirXPos)
	}
	if cy != dy {
		return wrapDir(dy-cy, t.h, dirYPos)
	}
	return -1
}

// wrapDir picks pos (the positive link of a ring of size nodes) or the
// negative link after it for a nonzero offset delta in (-size, size):
// positive when going forward is no longer than wrapping backward.
func wrapDir(delta, size, pos int) int {
	if delta < 0 {
		delta += size
	}
	if delta <= size-delta {
		return pos
	}
	return pos + 1
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
			t.credit(t.windows[ev.Node].Get(int(ev.Aux)))
			return
		}
		t.forward(ev.Msg.(*Msg), int(ev.Node))
	})
}

// Injector returns p's sending handle: an admitted message starts
// its hop-by-hop traversal at the source router.
func (t *Torus) Injector(p *sim.Process, then func()) *Injector {
	return t.newInjector(p, then, t.launch)
}

// launch starts admitted m's traversal at the source router.
func (t *Torus) launch(m *Msg) { t.forward(m, m.Src) }

// forward routes m one step from node: eject if this is the
// destination, otherwise claim (or queue on) the dimension-order
// output link.
func (t *Torus) forward(m *Msg, node int) {
	dir := t.nextDir(node, m.Dst)
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
// occupancy, and m reaches the next router occupancy+hopLat later,
// both scaled inside a degrade window. Both events are created here,
// at transmit time, in release-then-arrive order — the cadence the
// goldens pin (see the type comment).
func (t *Torus) transmit(li int, m *Msg) {
	t.busy[li] = 1
	t.hops.Inc()
	if t.rec != nil {
		t.noteMsg(li/numDirs, trace.KLinkTx, int32(li), m)
	}
	// Transmit runs on the link owner's shard, so its engine is the
	// current one.
	eng := t.engAt(li / numDirs)
	occ, lat := t.occupancy, t.hopLat
	if t.inj != nil {
		occ, lat = t.inj.OccupancyAt(eng.Now(), occ), t.inj.LatencyAt(eng.Now(), lat)
	}
	at := eng.Now() + occ + lat
	eng.Schedule(occ, t.releaseFns[li])
	if t.sh != nil {
		// Sharded: the release is local to the link's router; the
		// arrival crosses to the downstream router's shard carrying the
		// message itself (the flight queue cannot be popped from another
		// shard).
		t.sh.Cross(li/numDirs, sim.CrossEvent{
			At:   at,
			Key:  m.xkey << 1,
			Kind: xkArrive,
			Node: t.downstream[li],
			Msg:  m,
		})
		return
	}
	t.flight[li].Push(at, m)
	eng.ScheduleAt(at, t.arriveFns[li])
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
