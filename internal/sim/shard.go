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
// per-source inbox and pushed onto its destination engine at the next
// barrier instead of into a foreign queue mid-epoch.
//
// Determinism (shard-count invariance): cross-shard events are
// ordered by (At, Key), where Key is a fabric-assigned tiebreak unique
// per (At). At each barrier the coordinator drains the inboxes and
// pushes every event onto its destination engine's heap with the
// sequence number class1Base+Key: class-1 events never enter the
// calendar ring, whose per-cycle FIFOs hold only local events, in
// push (= seq) order. Engine-local events keep their ordinary sequence
// numbers, which stay far below class1Base. Each engine's own heap
// therefore dispatches cross events in (At, Key) order, after every
// local event of the same instant, and the merged (time, seq) order is
// a pure function of (At, Key) and of each node's own event-creation
// order — never of the shard count — so a ShardSet with one shard is
// byte-identical to the same ShardSet with eight. The coordinator
// holds no event state between barriers.
//
// Note the one-shard ShardSet whose fabric routes cross events, not
// the plain serial Engine, is the reference ordering: the serial
// engine interleaves same-instant cross-node events by creation order,
// while the canonical rule above orders a node's local events before
// same-instant cross arrivals. Both are valid event orderings; only
// the canonical one is shard-count invariant. A one-shard set with
// Forever lookahead whose fabric never calls Cross runs each Run as a
// single epoch, in exactly the serial Engine's order.

// class1Base is the sequence-number floor of cross-shard events.
// Engine-local sequence numbers are per-event increments and stay far
// below 2^48 for any practical run, so at equal times every local
// event precedes every cross event — a rule that is independent of
// shard count and of when either event was created.
const class1Base uint64 = 1 << 48

// CrossEvent is one cross-shard occurrence: a fabric message arriving
// at (or acknowledging to) a node owned by another shard.
type CrossEvent struct {
	// At is the absolute fire time.
	At Time
	// Key is the deterministic tiebreak: events with equal At must
	// carry distinct Keys, and (At, Key) defines the merge order. Key
	// must stay below 2^64 - 2^48, so that class1Base+Key does not
	// wrap; the fabric's xkey<<1|kind keys do up to about 8M nodes,
	// where xkey<<1 itself would wrap.
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

// xfire is a pooled carrier for one pushed cross event: the closure is
// built once and reused, so steady-state collection allocates nothing.
type xfire struct {
	ev CrossEvent
	fn func()
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
	// free[dstShard] pools xfire carriers: the coordinator pops at
	// barriers, the shard's dispatch pushes back mid-epoch.
	free []Pool[xfire]

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
		free:      make([]Pool[xfire], shards),
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

// Counters sums every shard engine's counters.
func (s *ShardSet) Counters() EngineCounters {
	var c EngineCounters
	for _, e := range s.engines {
		ec := e.Counters()
		c.Scheduled += ec.Scheduled
		c.Probed += ec.Probed
		c.Resumes += ec.Resumes
		c.SelfWakes += ec.SelfWakes
	}
	return c
}

// NextAt returns the time of the earliest event on any engine, or
// Forever when none is pending. Between Runs every cross event is
// already on its destination engine (Run collects the inboxes before
// it stops), so the engines' queues are all the work left.
func (s *ShardSet) NextAt() Time {
	S := Forever
	for _, e := range s.engines {
		S = min(S, e.nextAt())
	}
	return S
}

// Now returns the current simulation time. After Run returns, every
// shard's clock has been aligned to the global maximum.
func (s *ShardSet) Now() Time { return s.engines[0].Now() }

// collect drains every shard inbox onto the destination engines,
// each event with sequence number class1Base+Key. Runs only at
// barriers.
func (s *ShardSet) collect() {
	for i := range s.inboxes {
		for _, ev := range s.inboxes[i] {
			d := int(s.shardOf[ev.Node])
			x := s.free[d].Get()
			if x.fn == nil {
				s.bindCarrier(x, d)
			}
			x.ev = ev
			s.engines[d].pushCross(ev.At, class1Base+ev.Key, x.fn)
		}
		s.inboxes[i] = s.inboxes[i][:0]
	}
}

// bindCarrier gives a new carrier for destination shard d the closure
// that returns it to d's pool after dispatch. It is a method, not
// inline in collect, so the closure's capture of d cannot move
// collect's loop variable to the heap on every call.
func (s *ShardSet) bindCarrier(x *xfire, d int) {
	x.fn = func() {
		s.dispatch(&x.ev)
		x.ev.Msg = nil
		s.free[d].Put(x)
	}
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
// every shard's clock is aligned). Events beyond the horizon, cross
// events included, stay on their engines for a later Run.
func (s *ShardSet) Run(horizon Time) Time {
	if s.stopped {
		panic("sim: Run after Stop")
	}
	for {
		s.collect()
		S := s.NextAt()
		if S == Forever || S > horizon {
			break
		}
		end := S + s.lookahead - 1
		if end > horizon {
			end = horizon
		}
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
