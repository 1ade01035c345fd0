package sim

import (
	"fmt"
	"slices"
	"testing"
)

// tieWorkload loads e with processes and callbacks that tie at the
// same instants, park on a Cond and wake each other, and logs every
// dispatch with its time and the engine's sequence counter — so two
// logs are equal only if the events popped in the same (time, seq)
// order.
func tieWorkload(e *Engine, log *[]string) {
	note := func(what string) {
		*log = append(*log, fmt.Sprintf("%d %s seq=%d", e.Now(), what, e.Scheduled()))
	}
	c := NewCond(e)
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Process) {
			for k := 0; k < 4; k++ {
				c.Wait(p)
				note(fmt.Sprintf("w%d woke", i))
				p.Sleep(Time(i * 3))
				note(fmt.Sprintf("w%d slept", i))
			}
		})
	}
	e.Spawn("sig", func(p *Process) {
		for k := 0; k < 12; k++ {
			p.Sleep(10)
			note("sig")
			if k%3 == 0 {
				c.Broadcast()
			} else {
				c.Signal()
			}
			e.Schedule(0, func() { note("cb+0") })
			e.Schedule(5, func() { note("cb+5") })
		}
	})
}

// TestOneShardForeverMatchesEngine pins the contract every small or
// flat machine runs on: a one-shard ShardSet with Forever lookahead
// never crosses, so each Run is one epoch and dispatches exactly the
// bare Engine's (time, seq) sequence, across several horizon-bounded
// Runs as well as a final drain.
func TestOneShardForeverMatchesEngine(t *testing.T) {
	horizons := []Time{0, 15, 15, 37, 60, 61, 100, Forever}
	var want, got []string
	e := NewEngine()
	tieWorkload(e, &want)
	s := NewShardSet(4, 1, Forever)
	tieWorkload(s.Engine(0), &got)
	for _, h := range horizons {
		we, ge := e.Run(h), s.Run(h)
		if we != ge || e.Now() != s.Now() {
			t.Fatalf("Run(%d): engine returned %d (now %d), shard set %d (now %d)", h, we, e.Now(), ge, s.Now())
		}
		if !slices.Equal(got, want) {
			t.Fatalf("Run(%d): dispatch order diverges\n  engine: %q\n  shards: %q", h, want, got)
		}
	}
	if len(want) < 50 || e.Scheduled() != s.Engine(0).Scheduled() {
		t.Errorf("logged %d dispatches, scheduled %d vs %d", len(want), e.Scheduled(), s.Engine(0).Scheduled())
	}
	e.Stop()
	s.Stop()
}
