package sim

import "runtime"

// Conservative-lookahead sharded engine (time-barrier PDES).
//
// A ShardSet partitions a machine's nodes into contiguous groups, each
// with its own Engine (its own event queue — calendar ring plus 4-ary
// heap — clock, and process token).
// Execution proceeds in epochs: at a barrier the coordinator finds the
// globally earliest pending event time S and lets every shard run
// [S, S+L-1] independently, where L (the lookahead) is a lower bound
// on the delay of any event one shard can create on another. Any
// cross-shard event created during the epoch therefore fires at
// S+L or later — provably after the epoch — so it is routed through a
// deterministic-merge inbox and materialised at the next barrier
// instead of being pushed into a foreign queue mid-epoch.
//
// Determinism (shard-count invariance): cross-shard events are
// ordered by (At, Key), where Key is a fabric-assigned tiebreak unique
// per (At). At each barrier the coordinator drains the inboxes into
// per-destination-shard pending heaps and materialises the events due
// this epoch in sorted (At, Key) order, assigning each a sequence
// number in the class-1 band (class1Base + a per-shard monotonic
// rank), and pushes it onto the destination engine's heap: class-1
// events never enter the calendar ring, whose per-cycle FIFOs hold
// only local events, in push (= seq) order. Engine-local events keep
// their ordinary sequence numbers, which stay far below class1Base.
// The merged (time, seq) dispatch order is therefore a pure function
// of (At, Key) and of each node's own event-creation order — never of
// the shard count — so a ShardSet with one shard is byte-identical to
// the same ShardSet with eight.
// (Epoch windows never overlap in time, so ranks assigned at earlier
// barriers order correctly against later ones.)
//
// Note the one-shard ShardSet whose fabric routes cross events, not
// the plain serial Engine, is the reference ordering: the serial
// engine interleaves same-instant cross-node events by creation order,
// while the canonical rule above orders a node's local events before
// same-instant cross arrivals. Both are valid event orderings; only
// the canonical one is shard-count invariant. A one-shard set with
// Forever lookahead whose fabric never calls Cross runs each Run as a
// single epoch, in exactly the serial Engine's order.

// class1Base is the sequence-number floor of materialised cross-shard
// events. Engine-local sequence numbers are per-event increments and
// stay far below 2^48 for any practical run, so at equal times every
// local event precedes every cross event — a rule that is independent
// of shard count and of when either event was created.
const class1Base uint64 = 1 << 48

// CrossEvent is one cross-shard occurrence: a fabric message arriving
// at (or acknowledging to) a node owned by another shard.
type CrossEvent struct {
	// At is the absolute fire time.
	At Time
	// Key is the deterministic tiebreak: events with equal At must
	// carry distinct Keys, and (At, Key) defines the merge order.
	Key uint64
	// Kind and Node are routing tags for the dispatcher: Node is the
	// node the event fires at (it selects the destination shard). Aux
	// is a second dispatcher-defined tag (e.g. the far end of a flow-
	// control slot).
	Kind uint8
	Node int32
	Aux  int32
	// Msg carries the payload (a pointer, so boxing allocates nothing).
	Msg any
}

// xfire is a pooled carrier for one materialised cross event: the
// closure is built once and reused, so steady-state materialisation
// allocates nothing.
type xfire struct {
	ev CrossEvent
	fn func()
}

// crossHeap is a 4-ary min-heap of CrossEvents ordered by (At, Key).
type crossHeap struct {
	a []CrossEvent
}

func (h *crossHeap) len() int { return len(h.a) }

func crossBefore(x, y *CrossEvent) bool {
	if x.At != y.At {
		return x.At < y.At
	}
	return x.Key < y.Key
}

func (h *crossHeap) push(ev CrossEvent) {
	h.a = append(h.a, ev)
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !crossBefore(&h.a[i], &h.a[parent]) {
			break
		}
		h.a[i], h.a[parent] = h.a[parent], h.a[i]
		i = parent
	}
}

func (h *crossHeap) pop() CrossEvent {
	top := h.a[0]
	n := len(h.a) - 1
	h.a[0] = h.a[n]
	h.a[n] = CrossEvent{}
	h.a = h.a[:n]
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			return top
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if crossBefore(&h.a[c], &h.a[min]) {
				min = c
			}
		}
		if !crossBefore(&h.a[min], &h.a[i]) {
			return top
		}
		h.a[i], h.a[min] = h.a[min], h.a[i]
		i = min
	}
}

// ShardSet is a group of Engines executing one simulation under
// conservative-lookahead synchronisation. Build it with NewShardSet,
// bind every node's components to Engine(node), wire the fabric's
// cross-shard dispatch with SetDispatch, and drive it with Run/Stop
// exactly like a single Engine.
type ShardSet struct {
	nodes     int
	lookahead Time
	engines   []*Engine
	shardOf   []int32 // node -> shard
	dispatch  func(*CrossEvent)

	// inboxes[srcShard] collects cross events created during an epoch.
	// Each is written only by its own shard's goroutine and drained by
	// the coordinator at the barrier (the epoch channels order the
	// accesses), so no locks are needed.
	inboxes [][]CrossEvent
	// pending[dstShard] holds collected events not yet due, in
	// (At, Key) order; rank[dstShard] is the monotonic class-1
	// materialisation counter.
	pending []crossHeap
	rank    []uint64
	// free[dstShard] pools xfire carriers: the coordinator pops at
	// barriers, the shard's dispatch pushes back mid-epoch.
	free [][]*xfire

	// Epoch workers (started lazily, only when more than one shard).
	workers bool
	start   []chan Time
	done    chan struct{}
	panics  []any // panics[shard]: what its worker recovered this epoch
	stopped bool
}

// NewShardSet builds shards engines covering nodes nodes, with the
// given conservative lookahead (the minimum cross-shard event delay;
// every cross event must fire at least lookahead cycles after the
// instant that created it). The shard count is clamped to the node
// count.
func NewShardSet(nodes, shards int, lookahead Time) *ShardSet {
	if shards < 1 {
		shards = 1
	}
	if shards > nodes {
		shards = nodes
	}
	if lookahead < 1 {
		lookahead = 1
	}
	s := &ShardSet{
		nodes:     nodes,
		lookahead: lookahead,
		engines:   make([]*Engine, shards),
		shardOf:   make([]int32, nodes),
		inboxes:   make([][]CrossEvent, shards),
		pending:   make([]crossHeap, shards),
		rank:      make([]uint64, shards),
		free:      make([][]*xfire, shards),
	}
	for i := range s.engines {
		s.engines[i] = NewEngine()
	}
	// Contiguous balanced partition: node n belongs to shard
	// n*shards/nodes, so neighbouring node ids share a shard.
	for n := 0; n < nodes; n++ {
		s.shardOf[n] = int32(n * shards / nodes)
	}
	return s
}

// Shards returns the shard (engine) count.
func (s *ShardSet) Shards() int { return len(s.engines) }

// ShardOf returns the shard owning node.
func (s *ShardSet) ShardOf(node int) int { return int(s.shardOf[node]) }

// Engine returns the engine owning node. Every component of a node
// must schedule on (and spawn processes on) this engine.
func (s *ShardSet) Engine(node int) *Engine { return s.engines[s.shardOf[node]] }

// SetDispatch installs the cross-event dispatcher. It runs on the
// destination node's engine at the event's At.
func (s *ShardSet) SetDispatch(fn func(*CrossEvent)) { s.dispatch = fn }

// Cross routes ev — created by code currently executing on node from's
// shard — to ev.Node's shard. ev.At must be at least the lookahead
// after from's current time; the fabric guarantees this by
// construction (its minimum cross-node delay defines the lookahead).
func (s *ShardSet) Cross(from int, ev CrossEvent) {
	src := s.shardOf[from]
	s.inboxes[src] = append(s.inboxes[src], ev)
}

// Probed sums every shard engine's Probed count.
func (s *ShardSet) Probed() uint64 { return s.sum((*Engine).Probed) }

// Resumes sums every shard engine's Resumes count.
func (s *ShardSet) Resumes() uint64 { return s.sum((*Engine).Resumes) }

// SelfWakes sums every shard engine's SelfWakes count.
func (s *ShardSet) SelfWakes() uint64 { return s.sum((*Engine).SelfWakes) }

// sum totals count over every shard engine.
func (s *ShardSet) sum(count func(*Engine) uint64) uint64 {
	var n uint64
	for _, e := range s.engines {
		n += count(e)
	}
	return n
}

// Now returns the current simulation time. After Run returns, every
// shard's clock has been aligned to the global maximum.
func (s *ShardSet) Now() Time { return s.engines[0].Now() }

// collect drains every shard inbox into the destination shards'
// pending heaps. Runs only at barriers.
func (s *ShardSet) collect() {
	for i := range s.inboxes {
		for _, ev := range s.inboxes[i] {
			s.pending[int(s.shardOf[ev.Node])].push(ev)
		}
		s.inboxes[i] = s.inboxes[i][:0]
	}
}

// materialise pushes every pending cross event due by end onto its
// destination engine, in (At, Key) order, with class-1 sequence
// numbers. Runs only at barriers.
func (s *ShardSet) materialise(end Time) {
	for d := range s.pending {
		h := &s.pending[d]
		for h.len() > 0 && h.a[0].At <= end {
			ev := h.pop()
			var x *xfire
			if n := len(s.free[d]); n > 0 {
				x = s.free[d][n-1]
				s.free[d] = s.free[d][:n-1]
			} else {
				x = s.newCarrier(d)
			}
			x.ev = ev
			s.engines[d].pushCross(ev.At, class1Base+s.rank[d], x.fn)
			s.rank[d]++
		}
	}
}

// newCarrier builds a carrier for destination shard d whose closure
// returns it to d's free list after dispatch. It is a method, not
// inline in materialise, so the closure's capture of d cannot move
// materialise's loop variable to the heap on every call.
func (s *ShardSet) newCarrier(d int) *xfire {
	x := &xfire{}
	x.fn = func() {
		s.dispatch(&x.ev)
		x.ev.Msg = nil
		s.free[d] = append(s.free[d], x)
	}
	return x
}

// runEpoch runs every shard to end. With one shard — or one usable
// CPU, where worker goroutines would only add channel round-trips per
// epoch — the shards run inline, in order (epochs are independent
// across shards, so inline execution is byte-identical to the worker
// path). Otherwise persistent workers are released and awaited through
// the epoch channels (spawning goroutines per epoch would dominate the
// barrier cost at tens of thousands of epochs per run). A worker
// recovers a panic in its shard, and runEpoch re-raises it after the
// barrier — the lowest-numbered shard's, as inline execution would.
func (s *ShardSet) runEpoch(end Time) {
	if len(s.engines) == 1 || runtime.GOMAXPROCS(0) == 1 {
		for _, e := range s.engines {
			e.Run(end)
		}
		return
	}
	if !s.workers {
		s.workers = true
		s.start = make([]chan Time, len(s.engines))
		s.done = make(chan struct{}, len(s.engines))
		s.panics = make([]any, len(s.engines))
		for i := range s.engines {
			s.start[i] = make(chan Time)
			go func(i int, start chan Time) {
				for end := range start {
					func() {
						defer func() { s.panics[i] = recover() }()
						s.engines[i].Run(end)
					}()
					s.done <- struct{}{}
				}
			}(i, s.start[i])
		}
	}
	for _, c := range s.start {
		c <- end
	}
	for range s.engines {
		<-s.done
	}
	for _, r := range s.panics {
		if r != nil {
			panic(r)
		}
	}
}

// Run executes events until no work remains or the clock would pass
// horizon, in conservative epochs of lookahead cycles. It returns the
// final simulation time (the global maximum across shards, to which
// every shard's clock is aligned). Pending cross events beyond the
// horizon survive for a later Run.
func (s *ShardSet) Run(horizon Time) Time {
	if s.stopped {
		panic("sim: Run after Stop")
	}
	for {
		s.collect()
		S := Forever
		for _, e := range s.engines {
			if t := e.nextAt(); t < S {
				S = t
			}
		}
		for i := range s.pending {
			if s.pending[i].len() > 0 && s.pending[i].a[0].At < S {
				S = s.pending[i].a[0].At
			}
		}
		if S == Forever || S > horizon {
			break
		}
		end := S + s.lookahead - 1
		if end > horizon {
			end = horizon
		}
		s.materialise(end)
		s.runEpoch(end)
	}
	max := Time(0)
	for _, e := range s.engines {
		if now := e.Now(); now > max {
			max = now
		}
	}
	for _, e := range s.engines {
		e.advanceTo(max)
	}
	return max
}

// Stop terminates the epoch workers and unwinds every shard's parked
// processes. Call once, after the final Run. Safe to call twice.
func (s *ShardSet) Stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	if s.workers {
		for _, c := range s.start {
			close(c)
		}
	}
	for _, e := range s.engines {
		e.Stop()
	}
}
