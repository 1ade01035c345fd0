package network

import (
	"fmt"
	"testing"

	"repro/internal/params"
	"repro/internal/sim"
)

// gatedPort refuses deliveries except while its node's gate process
// holds it open, so arrivals queue and then deliver, and return their
// credits, in same-instant batches.
type gatedPort struct {
	open bool
	n    int
}

func (g *gatedPort) NetDeliver(*Msg) bool {
	if g.open {
		g.n++
	}
	return g.open
}

// TestShardWindowSlotsRecycle runs long uniform traffic, with bursts
// that fill single windows, over a 64-node torus, so every source
// reaches most destinations, ports release arrivals in batches, and
// more senders queue on a full window than one batch of credits wakes.
// Between runs it checks that window slots follow the traffic rather
// than the pairs ever contacted: every source holds no more live slots
// than its in-flight messages plus waiting senders, TotalInFlight is
// the per-source sum, and every slot is released once the fabric
// drains. It runs on one serial engine, where a batch's credits fire
// before the senders they wake (a window drains with senders still
// queued), and on four shards, where under -race it also checks that a
// source's slots are touched only by its own shard.
func TestShardWindowSlotsRecycle(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { windowSlotsRecycle(t, shards) })
	}
}

func windowSlotsRecycle(t *testing.T, shards int) {
	const (
		n       = 64
		senders = params.NetWindow + 2 // per node, all bursting to one hot destination
		burst   = params.NetWindow + 2
		sends   = 40 // per sender, after its opening burst
		meanGap = 6000
		gate    = 8000 // cycles between a port's batch deliveries
		limit   = 10 * sends * meanGap
	)
	lookahead := sim.Forever
	if shards > 1 {
		lookahead = sim.Time(params.TorusHopLatency)
	}
	sh := sim.NewShardSet(n, shards, lookahead)
	defer sh.Stop()
	st := sim.NewStats(sh.Engine(0))
	tor := NewTorus(sh.Engine(0), st, n)
	if shards > 1 {
		tor.AttachShards(sh)
		st.MarkConcurrent()
	}
	ports := make([]gatedPort, n)
	for i := range ports {
		tor.Register(i, &ports[i])
		sh.Engine(i).Spawn("gate", func(p *sim.Process) {
			for p.Now() < limit {
				p.Sleep(gate)
				ports[i].open = true
				tor.Unblock(i)
				ports[i].open = false
			}
			ports[i].open = true
			tor.Unblock(i)
		})
	}
	// Per-source tallies, each written only on the source's shard.
	injected := make([]int, n)
	finished := make([]int, n)
	reached := make([][n]bool, n)
	for src := 0; src < n; src++ {
		for k := 0; k < senders; k++ {
			rng := uint64(src*senders+k+1) * 0x9E3779B97F4A7C15
			next := func() uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng
			}
			send := func(p *sim.Process, dst, count int) {
				for b := 0; b < count; b++ {
					inject(tor, p, &Msg{Src: src, Dst: dst, Size: 8, Blocks: 1})
					injected[src]++
				}
				reached[src][dst] = true
			}
			hot := (src + n/2) % n
			sh.Engine(src).Spawn("sender", func(p *sim.Process) {
				send(p, hot, burst)
				for i := 0; i < sends; i++ {
					p.Sleep(sim.Time(next() % (2 * meanGap)))
					if next()%8 == 0 {
						send(p, hot, burst)
						continue
					}
					dst := int(next() % (n - 1))
					if dst >= src {
						dst++
					}
					send(p, dst, 1)
				}
				finished[src]++
			})
		}
	}

	check := func(at sim.Time) {
		total := 0
		for src := 0; src < n; src++ {
			inFlight := 0
			for dst := 0; dst < n; dst++ {
				inFlight += tor.InFlight(src, dst)
			}
			waiters := 0
			for dst, w := range tor.windows[src].All() {
				if w.inFlight == 0 && w.free.Waiting() == 0 {
					t.Fatalf("cycle %d: idle window slot (%d,%d) still live", at, src, dst)
				}
				waiters += w.free.Waiting()
			}
			if live := tor.windows[src].Len(); live > inFlight+waiters {
				t.Fatalf("cycle %d: source %d holds %d live slots for %d in flight + %d waiting",
					at, src, live, inFlight, waiters)
			}
			total += inFlight
		}
		if got := tor.TotalInFlight(); got != total {
			t.Fatalf("cycle %d: TotalInFlight = %d, per-source sum %d", at, got, total)
		}
	}
	stalls := st.Counter("net.window.stall")
	for horizon := sim.Time(meanGap); ; horizon += meanGap {
		check(sh.Run(horizon))
		idle := tor.TotalInFlight() == 0
		for _, f := range finished {
			idle = idle && f == senders
		}
		if idle {
			break
		}
		if horizon > limit {
			t.Fatalf("cycle %d: senders still blocked; a waiter lost its window", horizon)
		}
	}
	check(sh.Run(sim.Forever))

	want, got := 0, 0
	for i := 0; i < n; i++ {
		want += injected[i]
		got += ports[i].n
		if live := tor.windows[i].Len(); live != 0 {
			t.Errorf("source %d holds %d live window slots after the fabric drained", i, live)
		}
		hit := 0
		for _, r := range reached[i] {
			if r {
				hit++
			}
		}
		if hit < (n-1)*3/4 {
			t.Errorf("source %d reached only %d of %d destinations", i, hit, n-1)
		}
	}
	if got != want || want < n*senders*sends {
		t.Fatalf("delivered %d of %d injected messages", got, want)
	}
	if stalls.Value() == 0 {
		t.Fatal("no window stalls: the bursts never filled a window")
	}
}
