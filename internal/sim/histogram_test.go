package sim

import (
	"math"
	"testing"
)

func TestHistogramExactSmallValues(t *testing.T) {
	var h Histogram
	for v := Time(0); v < histLinear; v++ {
		h.Record(v)
	}
	if h.Count() != histLinear {
		t.Fatalf("count = %d, want %d", h.Count(), histLinear)
	}
	if h.Min() != 0 || h.Max() != histLinear-1 {
		t.Fatalf("min/max = %d/%d, want 0/%d", h.Min(), h.Max(), histLinear-1)
	}
	// Values below histLinear land in exact buckets, so quantiles of a
	// uniform 0..15 population are exact.
	if got := h.Quantile(0.5); got != 8 {
		t.Errorf("p50 = %d, want 8", got)
	}
	if got := h.Quantile(1); got != histLinear-1 {
		t.Errorf("p100 = %d, want %d", got, histLinear-1)
	}
}

// TestHistogramQuantileErrorBound checks the documented 1/histLinear
// relative error across magnitudes.
func TestHistogramQuantileErrorBound(t *testing.T) {
	for _, v := range []Time{17, 100, 1000, 12345, 1 << 20, 1<<40 + 12345} {
		var h Histogram
		h.Record(v)
		got := h.Quantile(0.99)
		err := math.Abs(float64(got)-float64(v)) / float64(v)
		if err > 1.0/histLinear {
			t.Errorf("value %d: p99 = %d, relative error %.4f > %.4f", v, got, err, 1.0/histLinear)
		}
	}
}

func TestHistogramBucketBoundsRoundTrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 15, 16, 17, 31, 32, 100, 1023, 1024, 1 << 30, 1<<63 + 5} {
		i := bucketIndex(v)
		lo, hi := bucketBounds(i)
		if v < lo || v >= hi {
			t.Errorf("value %d maps to bucket %d with bounds [%d,%d)", v, i, lo, hi)
		}
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b, whole Histogram
	for v := Time(1); v <= 1000; v++ {
		whole.Record(v)
		if v%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.Merge(&b)
	if a != whole {
		t.Fatal("merged histogram differs from the directly recorded one")
	}
	if a.Mean() != whole.Mean() || a.Quantile(0.999) != whole.Quantile(0.999) {
		t.Fatal("merged summary statistics differ")
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

// TestHistogramQuantileEdges pins the bug-sweep contract for the
// quantile edges: q <= 0 (and NaN) returns Min(), q >= 1 returns
// Max(), an empty histogram returns zero for every q, and no answer
// interpolates off a bucket edge past the exactly-tracked extremes.
func TestHistogramQuantileEdges(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name   string
		values []Time
		q      float64
		want   Time
	}{
		{"empty q=0", nil, 0, 0},
		{"empty q=0.5", nil, 0.5, 0},
		{"empty q=1", nil, 1, 0},
		{"empty NaN", nil, nan, 0},
		{"single q=0", []Time{7}, 0, 7},
		{"single q=0.5", []Time{7}, 0.5, 7},
		{"single q=1", []Time{7}, 1, 7},
		{"two q=0", []Time{3, 9}, 0, 3},
		{"two q=1", []Time{3, 9}, 1, 9},
		{"q<0 clamps to min", []Time{3, 9}, -0.5, 3},
		{"q>1 clamps to max", []Time{3, 9}, 1.5, 9},
		{"NaN clamps to min", []Time{3, 9}, nan, 3},
		// 1000 shares a log bucket spanning [960, 1024); without the
		// min/max clamp, q=0 would interpolate to the bucket's lower
		// bound (960) and q=1 to its upper edge, neither ever recorded.
		{"bucket lower edge", []Time{1000}, 0, 1000},
		{"bucket upper edge", []Time{1000}, 1, 1000},
		{"bucket mid", []Time{1000}, 0.5, 1000},
	}
	for _, c := range cases {
		var h Histogram
		for _, v := range c.values {
			h.Record(v)
		}
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("%s: Quantile(%v) over %v = %d, want %d", c.name, c.q, c.values, got, c.want)
		}
	}
}

// TestHistogramRecordZeroAlloc pins the per-message telemetry path at
// zero allocations (the issue's contract: Record sits on the message
// timestamp path of every fabric delivery).
func TestHistogramRecordZeroAlloc(t *testing.T) {
	var h Histogram
	v := Time(1)
	allocs := testing.AllocsPerRun(1000, func() {
		h.Record(v)
		v = v*7 + 3
	})
	if allocs != 0 {
		t.Errorf("Histogram.Record allocates %.1f objects/op, want 0", allocs)
	}
}

func TestStatsHistogramInterning(t *testing.T) {
	s := NewStats()
	h1 := s.Histogram("lat")
	h2 := s.Histogram("lat")
	if h1 != h2 {
		t.Fatal("Histogram should intern by name")
	}
	h1.Record(5)
	if s.Histogram("lat").Count() != 1 {
		t.Fatal("recorded observation lost")
	}
	if got := s.Histograms(); len(got) != 1 || got[0] != "lat" {
		t.Fatalf("Histograms() = %v", got)
	}
}

func TestHistogramDeltaSince(t *testing.T) {
	var h Histogram
	for _, v := range []Time{10, 100, 1000} {
		h.Record(v)
	}
	snap := h // run-boundary snapshot
	for _, v := range []Time{20, 200, 2000} {
		h.Record(v)
	}
	d := h.DeltaSince(&snap)
	if d.Count() != 3 {
		t.Fatalf("delta count = %d, want 3", d.Count())
	}
	if got, want := d.Mean(), float64(20+200+2000)/3; got != want {
		t.Fatalf("delta mean = %v, want %v", got, want)
	}
	// The window set a new lifetime maximum, so max is exact; the
	// minimum (20, below the exact-bucket threshold's power ranges but
	// above the lifetime min of 10) must come back within the bucket
	// error bound and inside the window's real envelope.
	if d.Max() != 2000 {
		t.Fatalf("delta max = %d, want exact 2000", d.Max())
	}
	if d.Min() < 10 || d.Min() > 20 {
		t.Fatalf("delta min = %d, want within [10,20]", d.Min())
	}

	// Empty-prefix snapshot: delta is the histogram itself, exactly.
	var zero Histogram
	if full := h.DeltaSince(&zero); full != h {
		t.Fatal("delta against an empty snapshot must equal the full histogram")
	}
	// Empty window: zero-valued histogram.
	if e := h.DeltaSince(&h); e.Count() != 0 || e.Quantile(0.5) != 0 {
		t.Fatalf("empty window delta = %+v", e)
	}
}
