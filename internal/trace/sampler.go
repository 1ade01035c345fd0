package trace

import (
	"repro/internal/sim"
)

// Sampler snapshots registered columns at a fixed period into
// columnar series. It is pure observation: the tick event consumes no
// simulated time, schedules nothing a process can see, and only
// *relabels* the engine's event sequence numbers — a monotone shift
// that preserves the relative order of every other event, so an
// enabled sampler leaves simulation behaviour (counters, latencies,
// delivered counts) exactly as a disabled one does. The one visible
// effect: a run's reported end time can extend to the last tick.
//
// The tick re-schedules itself only while other events remain
// pending; a quiescent engine's final tick simply stops, so RunAll
// still terminates. Machines re-arm the sampler (Ensure) at the start
// of every Run, covering back-to-back scenario runs.
type Sampler struct {
	eng   *sim.Engine
	every sim.Time

	cols []column
	// times and vals are the columnar series: times[i] is row i's
	// cycle stamp, vals[c][i] column c's sample.
	times []uint64
	vals  [][]float64

	tickFn func()
	armed  bool
}

// column is one registered series.
type column struct {
	name  string
	probe func() float64
	// delta turns a monotone probe (counter) into per-interval deltas.
	delta bool
	last  float64
}

// NewSampler builds a sampler ticking every `every` cycles. Columns
// are registered before the first run; Ensure arms the first tick.
func NewSampler(eng *sim.Engine, every sim.Time) *Sampler {
	if every < 1 {
		every = 1
	}
	s := &Sampler{eng: eng, every: every}
	s.tickFn = func() { s.tick() }
	return s
}

// Gauge registers a point-in-time column (queue depth, busy links).
func (s *Sampler) Gauge(name string, probe func() float64) {
	s.cols = append(s.cols, column{name: name, probe: probe})
}

// Delta registers a monotone column sampled as per-interval deltas
// (counter increments since the previous row).
func (s *Sampler) Delta(name string, probe func() float64) {
	s.cols = append(s.cols, column{name: name, probe: probe, delta: true})
}

// Counter registers a sim counter's per-interval deltas.
func (s *Sampler) Counter(name string, c *sim.Counter) {
	s.Delta(name, func() float64 { return float64(c.Value()) })
}

// Ensure arms the next tick if none is pending. Called by the machine
// at the start of every Run so sequential scenario runs keep
// sampling.
func (s *Sampler) Ensure() {
	if s.armed {
		return
	}
	s.armed = true
	s.eng.Schedule(s.every, s.tickFn)
}

// tick records one row and re-arms while other work remains. The
// pending check is what keeps RunAll terminating: with no other
// events left there is nothing more to observe.
func (s *Sampler) tick() {
	s.armed = false
	s.times = append(s.times, uint64(s.eng.Now()))
	if s.vals == nil {
		s.vals = make([][]float64, len(s.cols))
	}
	for i := range s.cols {
		c := &s.cols[i]
		v := c.probe()
		if c.delta {
			v, c.last = v-c.last, v
		}
		s.vals[i] = append(s.vals[i], v)
	}
	if s.eng.Pending() > 0 {
		s.armed = true
		s.eng.Schedule(s.every, s.tickFn)
	}
}

// Rows returns the number of recorded samples.
func (s *Sampler) Rows() int { return len(s.times) }

// Header returns "cycle" plus the registered column names.
func (s *Sampler) Header() []string {
	h := make([]string, 0, len(s.cols)+1)
	h = append(h, "cycle")
	for i := range s.cols {
		h = append(h, s.cols[i].name)
	}
	return h
}

// Times returns the row cycle stamps.
func (s *Sampler) Times() []uint64 { return s.times }

// Values returns column c's series (nil before the first tick).
func (s *Sampler) Values(c int) []float64 {
	if c >= len(s.vals) {
		return nil
	}
	return s.vals[c]
}

// Columns returns the registered column count.
func (s *Sampler) Columns() int { return len(s.cols) }

// ColumnName returns column c's name.
func (s *Sampler) ColumnName(c int) string { return s.cols[c].name }
