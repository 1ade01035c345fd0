package trace

import (
	"repro/internal/sim"
)

// Sampler snapshots registered columns into columnar series. It is
// pure observation and no part of the event order: the machine's run
// loop (machine.Machine.Run) stops every engine at each sample time
// and calls Sample, so a sampled run schedules, dispatches and ends
// exactly as an unsampled one, on any number of shards. The zero value
// has no columns; register them before the first Sample.
type Sampler struct {
	cols []column
	// times and vals are the columnar series: times[i] is row i's
	// cycle stamp, vals[c][i] column c's sample.
	times []uint64
	vals  [][]float64
}

// column is one registered series.
type column struct {
	name  string
	probe func() float64
	// delta turns a monotone probe (counter) into per-interval deltas.
	delta bool
	last  float64
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

// Sample records one row stamped at: every column's probe, deltas
// against the previous row. The caller must hold the whole simulation
// still while it runs.
func (s *Sampler) Sample(at sim.Time) {
	s.times = append(s.times, uint64(at))
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
}

// Rows returns the number of recorded samples.
func (s *Sampler) Rows() int { return len(s.times) }

// Times returns the row cycle stamps.
func (s *Sampler) Times() []uint64 { return s.times }

// Values returns column c's series (nil before the first Sample).
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
