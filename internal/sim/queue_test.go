package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// qkey is an event's place in the reference order: local events by
// (at, seq), and at equal times every local event before every
// class-1 cross event, which order among themselves by rank (pushed
// directly) or by Key (routed through a ShardSet).
type qkey struct {
	at    Time
	cross bool
	seq   uint64
}

func (k qkey) compare(o qkey) int {
	if c := cmp.Compare(k.at, o.at); c != 0 {
		return c
	}
	if k.cross != o.cross {
		if k.cross {
			return 1
		}
		return -1
	}
	return cmp.Compare(k.seq, o.seq)
}

// queueLog records every event one engine was given and every event it
// ran, each by its reference key.
type queueLog struct {
	made, ran []qkey
}

// check reports whether the engine ran exactly the events it was
// given, in the reference order: a plain sort of them by key.
func (l *queueLog) check(t *testing.T, name string) {
	t.Helper()
	want := slices.Clone(l.made)
	slices.SortFunc(want, qkey.compare)
	if len(want) < 1000 {
		t.Fatalf("%s: only %d events; the schedule is too small to cover the queue", name, len(want))
	}
	for i := range min(len(want), len(l.ran)) {
		if want[i] != l.ran[i] {
			lo, hi := max(i-3, 0), min(i+4, len(want))
			t.Fatalf("%s: dispatch %d diverges from a sort by (at, seq)\n  want %v\n  ran  %v", name, i, want[lo:hi], l.ran[lo:hi])
		}
	}
	if len(l.ran) != len(want) {
		t.Fatalf("%s: ran %d events, made %d", name, len(l.ran), len(want))
	}
}

// queueDelay draws a delay for the queue workload: half at the ring's
// edges (0, 1, 126, 127, 128, 129), a third anywhere on the ring, the
// rest far beyond it.
func queueDelay(rng *rand.Rand) Time {
	switch k := rng.Intn(6); {
	case k < 3:
		return []Time{0, 1, ringSize - 2, ringSize - 1, ringSize, ringSize + 1}[rng.Intn(6)]
	case k < 5:
		return Time(rng.Intn(ringSize))
	default:
		return ringSize + Time(rng.Intn(3000))
	}
}

// randSpinner is a Spinner that continues a random number of times
// with random delays, logging each wake it handles.
type randSpinner struct {
	e    *Engine
	rng  *rand.Rand
	log  *queueLog
	key  qkey // the wake's current key
	left int
}

func (s *randSpinner) Probe() (Time, bool) {
	if s.left == 0 {
		return 0, true
	}
	s.left--
	s.log.ran = append(s.log.ran, s.key)
	d := queueDelay(s.rng)
	// Probe re-arms with the next sequence number, as Sleep would.
	s.key = qkey{at: s.e.Now() + d, seq: s.e.Scheduled() + 1}
	s.log.made = append(s.log.made, s.key)
	return d, false
}

// queueWorkload drives e with a seeded random schedule until budget
// events have been made: fn events that schedule more fn events,
// sleeping processes, spinning processes, and — when cross is not nil
// — class-1 cross events, each at an instant where local events fall
// too. Every event is logged by its reference key.
func queueWorkload(e *Engine, rng *rand.Rand, log *queueLog, budget int, cross func(delay Time)) {
	var fire func()
	schedule := func(d Time) {
		k := qkey{at: e.Now() + d, seq: e.Scheduled() + 1}
		log.made = append(log.made, k)
		e.ScheduleAt(k.at, func() {
			log.ran = append(log.ran, k)
			fire()
		})
	}
	fire = func() {
		if len(log.made) >= budget {
			return
		}
		n := 1
		if e.events.len() < 24 {
			n = 2
		}
		if rng.Intn(300) == 0 {
			// A burst past the slab's free entries: near events then
			// go to the heap, next to same-cycle events on the ring,
			// until Run grows the slab.
			n = ringSize + 16
		}
		for ; n > 0; n-- {
			d := queueDelay(rng)
			schedule(d)
			if cross != nil && rng.Intn(4) == 0 {
				// A cross event at the same instant as the local one.
				cross(d)
			}
		}
	}
	spawn := func(name string, body func(p *Process)) {
		var k qkey
		e.Spawn(name, func(p *Process) {
			log.ran = append(log.ran, k)
			body(p)
		})
		k = qkey{at: e.Now(), seq: e.Scheduled()}
		log.made = append(log.made, k)
	}
	for i := 0; i < 8; i++ {
		schedule(Time(i))
	}
	for i := 0; i < 3; i++ {
		spawn(fmt.Sprintf("sleeper%d", i), func(p *Process) {
			for len(log.made) < budget {
				d := queueDelay(rng)
				k := qkey{at: e.Now() + d, seq: e.Scheduled() + 1}
				log.made = append(log.made, k)
				p.Sleep(d)
				log.ran = append(log.ran, k)
			}
		})
	}
	for i := 0; i < 3; i++ {
		spawn(fmt.Sprintf("spinner%d", i), func(p *Process) {
			s := &randSpinner{e: e, rng: rng, log: log}
			for len(log.made) < budget {
				d := queueDelay(rng)
				s.key = qkey{at: e.Now() + d, seq: e.Scheduled() + 1}
				s.left = rng.Intn(40)
				log.made = append(log.made, s.key)
				p.Spin(d, s)
				log.ran = append(log.ran, s.key)
			}
		})
	}
}

// TestEventQueueMatchesReference drives the ring-plus-heap event queue
// with seeded random schedules and checks that every engine dispatches
// exactly a plain sort of its events by (at, seq): delays at the
// ring's edges and far beyond it, many laps round the ring, bursts
// that fill the ring's slab, class-1
// cross events tied with local events, Run horizons that cut into the
// schedule, ShardSet barriers that move clocks forward with advanceTo,
// and spinning probes re-armed into every cycle of the ring and past
// it — on a bare engine, on a one-shard Forever ShardSet and on a
// 4-shard ShardSet.
func TestEventQueueMatchesReference(t *testing.T) {
	const budget = 6000
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("engine/seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			e := NewEngine()
			log := &queueLog{}
			rank := uint64(0)
			queueWorkload(e, rng, log, budget, func(d Time) {
				// What a coordinator's barrier does, minus the barrier.
				k := qkey{at: e.Now() + d, cross: true, seq: rank}
				log.made = append(log.made, k)
				e.pushCross(k.at, class1Base+rank, func() { log.ran = append(log.ran, k) })
				rank++
			})
			for e.events.len() > 0 {
				e.Run(e.nextAt() + Time(rng.Intn(3*ringSize)))
			}
			log.check(t, "engine")
			if e.Now() < 20*ringSize || e.Counters().Probed == 0 || rank == 0 {
				t.Errorf("ran to cycle %d with %d probes and %d cross events; want many laps of each", e.Now(), e.Counters().Probed, rank)
			}
			if len(e.events.slab) <= ringSize+1 {
				t.Errorf("the ring's slab never grew from %d entries; want bursts that fill it", len(e.events.slab))
			}
			e.Stop()
		})
		t.Run(fmt.Sprintf("one-shard/seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := NewShardSet(4, 1, Forever)
			e := s.Engine(0)
			log := &queueLog{}
			queueWorkload(e, rng, log, budget, nil)
			for e.events.len() > 0 {
				s.Run(e.nextAt() + Time(rng.Intn(3*ringSize)))
			}
			log.check(t, "one shard")
			s.Stop()
		})
		t.Run(fmt.Sprintf("four-shard/seed%d", seed), func(t *testing.T) {
			testQueueFourShards(t, seed, budget)
		})
	}
}

// testQueueFourShards runs queueWorkload on every shard of a 4-shard
// set whose fn events also send cross events to the next shard.
// Between Runs, with every clock aligned to the latest shard's by
// advanceTo, each shard is handed more events from outside the run.
func testQueueFourShards(t *testing.T, seed int64, budget int) {
	const lookahead = 37
	s := NewShardSet(4, 4, lookahead)
	logs := make([]queueLog, 4)
	// sent[src] holds the cross events shard src created, by
	// destination: the shards run in parallel, so each appends only to
	// its own.
	sent := make([][4][]qkey, 4)
	s.SetDispatch(func(ev *CrossEvent) {
		logs[ev.Node].ran = append(logs[ev.Node].ran, qkey{at: ev.At, cross: true, seq: ev.Key})
	})
	rngs := make([]*rand.Rand, 4)
	for i := range logs {
		e := s.Engine(i)
		rngs[i] = rand.New(rand.NewSource(seed*10 + int64(i)))
		n := uint64(0)
		queueWorkload(e, rngs[i], &logs[i], budget, func(d Time) {
			dst := (i + 1) % 4
			at := e.Now() + lookahead + d
			// The local event at the same instant, so the two tie.
			k := qkey{at: at, seq: e.Scheduled() + 1}
			logs[i].made = append(logs[i].made, k)
			e.ScheduleAt(at, func() { logs[i].ran = append(logs[i].ran, k) })
			// A fabric key at the top of the real range: a high
			// source node's xkey, shifted for the kind bit.
			key := ((uint64(65000+i)+1)<<40|n)<<1 | 1
			n++
			sent[i][dst] = append(sent[i][dst], qkey{at: at, cross: true, seq: key})
			s.Cross(i, CrossEvent{At: at, Key: key, Node: int32(dst)})
		})
	}
	// next is the earliest pending event on any shard, cross events
	// included, or Forever when all are done.
	next := func() Time {
		t := Forever
		for i := range logs {
			t = min(t, s.engines[i].nextAt())
			for _, ev := range s.inboxes[i] {
				t = min(t, ev.At)
			}
		}
		return t
	}
	for runs := 0; next() != Forever; runs++ {
		s.Run(next() + Time(rngs[0].Intn(3*ringSize)))
		if runs%4 != 0 {
			continue
		}
		for i := range logs {
			// Every event due at Now has run, cross ones included, so
			// a new one due then would follow them, outside the
			// reference order; it is due a cycle or more later.
			e := s.Engine(i)
			d := 1 + queueDelay(rngs[i])
			k := qkey{at: e.Now() + d, seq: e.Scheduled() + 1}
			logs[i].made = append(logs[i].made, k)
			e.ScheduleAt(k.at, func() { logs[i].ran = append(logs[i].ran, k) })
		}
	}
	for i := range logs {
		for src := range sent {
			logs[i].made = append(logs[i].made, sent[src][i]...)
		}
		logs[i].check(t, fmt.Sprintf("shard %d of 4", i))
	}
	if s.Counters().Probed == 0 {
		t.Error("no wake ran as a probe")
	}
	s.Stop()
}
