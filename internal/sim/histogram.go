package sim

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Histogram bucket geometry. Values below histLinear are recorded
// exactly; above that, each power-of-two range is split into
// histLinear linear sub-buckets, so a bucket's width is at most
// 1/histLinear of its lower bound — a 6.25% worst-case relative
// quantile error with histLinear = 16 (DESIGN.md §8).
const (
	histLinear     = 16 // sub-buckets per power of two (and the exact range)
	histLinearBits = 4  // log2(histLinear)
	// histBuckets covers the full 64-bit Time range: the exact range
	// plus histLinear sub-buckets for each exponent 5..64.
	histBuckets = histLinear + (64-histLinearBits)*histLinear
)

// Histogram is a zero-allocation log₂-bucket latency histogram for
// simulated durations. Record is pure arithmetic on an embedded
// array — safe on the per-message timestamp path — and quantiles are
// recovered by linear interpolation inside the matching bucket,
// clamped to the exactly-tracked min/max. Merge accumulates another
// histogram, which is how per-node telemetry becomes a machine-wide
// distribution.
//
// The zero value is an empty histogram ready for use.
//
// In concurrent mode (Stats.MarkConcurrent, set by sharded machines)
// Record uses atomic adds and min/max compare-and-swap loops: every
// accumulated quantity is order-independent, so a concurrent run's
// totals are byte-identical to the same observations recorded
// serially. Readers (quantiles, merges, snapshots) remain
// single-threaded, as they are on the serial path.
type Histogram struct {
	count   uint64
	sum     uint64
	min     Time
	max     Time
	buckets [histBuckets]uint64

	concurrent bool
}

// markConcurrent switches Record to the atomic path. The min field
// needs a sentinel: serial Record detects "first observation" via
// count == 0, which races under concurrent recording.
func (h *Histogram) markConcurrent() {
	h.concurrent = true
	if h.count == 0 {
		h.min = ^Time(0)
	}
}

// bucketIndex maps a value to its bucket.
func bucketIndex(v uint64) int {
	if v < histLinear {
		return int(v)
	}
	e := bits.Len64(v) // v in [2^(e-1), 2^e), e >= 5
	sub := int((v >> uint(e-1-histLinearBits)) & (histLinear - 1))
	return histLinear + (e-1-histLinearBits)*histLinear + sub
}

// bucketBounds returns the inclusive lower and exclusive upper value
// bounds of bucket i.
func bucketBounds(i int) (lo, hi uint64) {
	if i < histLinear {
		return uint64(i), uint64(i) + 1
	}
	e := (i-histLinear)/histLinear + histLinearBits + 1
	sub := uint64((i - histLinear) % histLinear)
	width := uint64(1) << uint(e-1-histLinearBits)
	lo = uint64(1)<<uint(e-1) + sub*width
	return lo, lo + width
}

// Record adds one observation. It never allocates.
func (h *Histogram) Record(v Time) {
	if h.concurrent {
		h.recordConcurrent(v)
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += uint64(v)
	h.buckets[bucketIndex(uint64(v))]++
}

// recordConcurrent is Record for shards recording on concurrent
// goroutines. min starts at the markConcurrent sentinel (all ones),
// so the empty case needs no special path.
func (h *Histogram) recordConcurrent(v Time) {
	for {
		cur := atomic.LoadUint64((*uint64)(&h.min))
		if uint64(v) >= cur || atomic.CompareAndSwapUint64((*uint64)(&h.min), cur, uint64(v)) {
			break
		}
	}
	for {
		cur := atomic.LoadUint64((*uint64)(&h.max))
		if uint64(v) <= cur || atomic.CompareAndSwapUint64((*uint64)(&h.max), cur, uint64(v)) {
			break
		}
	}
	atomic.AddUint64(&h.count, 1)
	atomic.AddUint64(&h.sum, uint64(v))
	atomic.AddUint64(&h.buckets[bucketIndex(uint64(v))], 1)
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count }

// Min returns the smallest recorded value (0 when empty).
func (h *Histogram) Min() Time {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value (0 when empty).
func (h *Histogram) Max() Time { return h.max }

// Quantile returns the q-quantile (q in [0,1]) by linear interpolation
// inside the bucket holding the target rank, clamped to the exact
// min/max. The relative error bound is 1/histLinear (6.25%).
//
// Edge behaviour is exact, never interpolated: an empty histogram
// returns 0 for any q, q <= 0 (and NaN) returns Min(), and q >= 1
// returns Max().
func (h *Histogram) Quantile(q float64) Time {
	if h.count == 0 {
		return 0
	}
	if q >= 1 {
		return h.max
	}
	if !(q > 0) { // q <= 0, and NaN (every comparison with NaN is false)
		return h.min
	}
	target := uint64(q*float64(h.count)) + 1
	if target > h.count {
		target = h.count
	}
	var cum uint64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		if cum+c >= target {
			lo, hi := bucketBounds(i)
			frac := float64(target-cum-1) / float64(c)
			v := Time(float64(lo) + frac*float64(hi-lo))
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
		cum += c
	}
	return h.max
}

// Merge accumulates o into h.
func (h *Histogram) Merge(o *Histogram) {
	if o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
}

// DeltaSince returns the distribution of the observations recorded
// since prev, an earlier snapshot (value copy) of this same
// histogram. Count, sum, and buckets subtract exactly. The window's
// min/max are exact when the window extended the lifetime extremes
// (or when prev was empty); otherwise they are reconstructed from the
// delta's occupied bucket bounds, clamped to the lifetime envelope —
// within the histogram's usual quantile error bound.
func (h *Histogram) DeltaSince(prev *Histogram) Histogram {
	if prev.count == 0 {
		return *h
	}
	if h.count < prev.count {
		panic("sim: DeltaSince snapshot is not a prefix of this histogram")
	}
	var d Histogram
	d.count = h.count - prev.count
	if d.count == 0 {
		return d
	}
	d.sum = h.sum - prev.sum
	first, last := -1, -1
	for i := range h.buckets {
		c := h.buckets[i] - prev.buckets[i]
		d.buckets[i] = c
		if c != 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	lo, _ := bucketBounds(first)
	_, hi := bucketBounds(last)
	d.min = Time(lo)
	if h.min < prev.min {
		d.min = h.min // the window set a new lifetime minimum: exact
	} else if d.min < h.min {
		d.min = h.min // a window sample cannot undercut the lifetime min
	}
	d.max = Time(hi - 1)
	if h.max > prev.max {
		d.max = h.max // the window set a new lifetime maximum: exact
	} else if d.max > h.max {
		d.max = h.max
	}
	return d
}

// String renders the headline percentiles for debugging.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d min=%d p50=%d p90=%d p99=%d p99.9=%d max=%d",
		h.count, h.Min(), h.Quantile(0.50), h.Quantile(0.90),
		h.Quantile(0.99), h.Quantile(0.999), h.max)
}
