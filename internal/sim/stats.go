package sim

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Counter is one interned statistics cell. Components resolve the name
// once at construction (Stats.Counter) and hold the pointer; Add/Inc on
// the handle are a plain memory increment with no map hash or string
// concatenation, so they are safe to call in the simulator's innermost
// loops.
//
// In concurrent mode (Stats.MarkConcurrent, set by sharded machines)
// the increments become atomic adds: totals are identical to the
// serial mode in any interleaving, so results stay byte-identical
// across shard counts. The value stays a plain uint64 (not an
// atomic.Uint64, which would make existing value copies vet errors).
type Counter struct {
	v          uint64
	concurrent bool
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c.concurrent {
		atomic.AddUint64(&c.v, n)
		return
	}
	c.v += n
}

// Inc increments the counter by one.
func (c *Counter) Inc() {
	if c.concurrent {
		atomic.AddUint64(&c.v, 1)
		return
	}
	c.v++
}

// Value returns the accumulated count.
func (c *Counter) Value() uint64 {
	if c.concurrent {
		return atomic.LoadUint64(&c.v)
	}
	return c.v
}

// Stats accumulates named counters and time-weighted utilisation
// trackers for a simulation run. It is the one place experiment
// harnesses read results from, so every substrate (bus, cache, NI)
// records into a Stats it is given at construction.
//
// Hot paths should intern a *Counter (or *BusyTracker) handle once and
// increment through it; the string-keyed Add/Inc/Get remain for tests
// and one-off accounting.
type Stats struct {
	concurrent bool
	counters   map[string]*Counter
	busy       map[string]*BusyTracker
	hists      map[string]*Histogram
}

// NewStats returns an empty Stats.
func NewStats() *Stats {
	return &Stats{
		counters: make(map[string]*Counter),
		busy:     make(map[string]*BusyTracker),
		hists:    make(map[string]*Histogram),
	}
}

// MarkConcurrent switches every counter and histogram — existing and
// future — to atomic recording, for machines whose shards run on
// concurrent goroutines. Totals are identical to serial recording.
// Handle creation itself stays single-threaded (components intern
// handles at machine build time, before any shard runs).
func (s *Stats) MarkConcurrent() {
	s.concurrent = true
	for _, c := range s.counters {
		c.concurrent = true
	}
	for _, h := range s.hists {
		h.markConcurrent()
	}
}

// Counter returns (creating if needed) the interned counter handle for
// name. Callers on hot paths resolve once and keep the pointer.
func (s *Stats) Counter(name string) *Counter {
	c, ok := s.counters[name]
	if !ok {
		c = &Counter{concurrent: s.concurrent}
		s.counters[name] = c
	}
	return c
}

// Add increments the named counter by n.
func (s *Stats) Add(name string, n uint64) { s.Counter(name).Add(n) }

// Inc increments the named counter by one.
func (s *Stats) Inc(name string) { s.Counter(name).Inc() }

// Get returns the value of the named counter (zero if never touched).
func (s *Stats) Get(name string) uint64 {
	if c, ok := s.counters[name]; ok {
		return c.Value()
	}
	return 0
}

// Counters returns the counter names in sorted order.
func (s *Stats) Counters() []string {
	names := make([]string, 0, len(s.counters))
	for n := range s.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Busy returns (creating if needed) the named busy tracker.
func (s *Stats) Busy(name string) *BusyTracker {
	b, ok := s.busy[name]
	if !ok {
		b = &BusyTracker{}
		s.busy[name] = b
	}
	return b
}

// Histogram returns (creating if needed) the interned latency
// histogram for name. As with Counter, hot paths resolve the handle
// once and Record through the pointer.
func (s *Stats) Histogram(name string) *Histogram {
	h, ok := s.hists[name]
	if !ok {
		h = &Histogram{}
		if s.concurrent {
			h.markConcurrent()
		}
		s.hists[name] = h
	}
	return h
}

// Histograms returns the histogram names in sorted order.
func (s *Stats) Histograms() []string {
	names := make([]string, 0, len(s.hists))
	for n := range s.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// String renders the counters, one per line, for debugging.
func (s *Stats) String() string {
	var b strings.Builder
	for _, n := range s.Counters() {
		fmt.Fprintf(&b, "%-40s %12d\n", n, s.counters[n].Value())
	}
	return b.String()
}

// BusyTracker accumulates the time a resource spends busy, used for
// bus occupancy measurements (paper §5.2). Substrates hold a resource
// for a known duration and account it in one AddBusy call.
type BusyTracker struct {
	total Time
}

// AddBusy accumulates d cycles of busy time.
func (b *BusyTracker) AddBusy(d Time) { b.total += d }

// Total returns the accumulated busy cycles.
func (b *BusyTracker) Total() Time { return b.total }
