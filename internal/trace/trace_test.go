package trace

import (
	"testing"

	"repro/internal/sim"
)

func TestRecorderRingWrap(t *testing.T) {
	e := sim.NewEngine()
	r := NewRecorder(e, 2, 4)
	if r.Nodes() != 2 {
		t.Fatalf("Nodes = %d, want 2", r.Nodes())
	}
	for i := 0; i < 10; i++ {
		r.Note(1, KInject, uint64(i), -1, 1, 0, 0, 0)
	}
	if got := r.Len(1); got != 4 {
		t.Errorf("Len(1) = %d, want 4 (ring capacity)", got)
	}
	if got := r.Len(0); got != 0 {
		t.Errorf("Len(0) = %d, want 0 (untouched ring)", got)
	}
	if got := r.Overwritten(); got != 6 {
		t.Errorf("Overwritten = %d, want 6", got)
	}
	// A wrapped ring keeps the newest records, oldest first.
	recs := r.records(1, nil)
	if len(recs) != 4 {
		t.Fatalf("records: %d, want 4", len(recs))
	}
	for i, rec := range recs {
		if want := uint64(6 + i); rec.ID != want {
			t.Errorf("records[%d].ID = %d, want %d", i, rec.ID, want)
		}
		if rec.Kind != KInject || rec.Src != 1 || rec.Dst != 0 || rec.Link != -1 {
			t.Errorf("records[%d] = %+v: fields not preserved", i, rec)
		}
	}
}

func TestRecorderPartialRing(t *testing.T) {
	e := sim.NewEngine()
	r := NewRecorder(e, 1, 8)
	r.Note(0, KAdmit, 42, -1, 0, 1, 3, FlagAck)
	recs := r.records(0, nil)
	if len(recs) != 1 {
		t.Fatalf("records: %d, want 1", len(recs))
	}
	rec := recs[0]
	if rec.ID != 42 || rec.Kind != KAdmit || rec.Frag != 3 || rec.Flags != FlagAck {
		t.Errorf("record = %+v", rec)
	}
	if r.Overwritten() != 0 {
		t.Errorf("Overwritten = %d on a non-wrapped ring", r.Overwritten())
	}
}

// TestRecorderRingsGrowOnDemand pins that a recorder holds memory for
// the records written, not for nodes × ring size, and that a ring
// grown by append wraps at its size like a preallocated one would.
func TestRecorderRingsGrowOnDemand(t *testing.T) {
	e := sim.NewEngine()
	r := NewRecorder(e, 64, 16384)
	for i := 0; i < 5; i++ {
		r.Note(3, KInject, uint64(i), -1, 3, 0, 0, 0)
	}
	for i := range r.rings {
		if c := cap(r.rings[i].recs); i != 3 && c != 0 {
			t.Errorf("untouched ring %d holds %d records of capacity", i, c)
		}
	}
	if c := cap(r.rings[3].recs); c < 5 || c > 64 {
		t.Errorf("ring 3 capacity %d after 5 records, want a few", c)
	}

	r = NewRecorder(e, 1, 100)
	for i := 0; i < 250; i++ {
		r.Note(0, KInject, uint64(i), -1, 0, 0, 0, 0)
	}
	if got := len(r.rings[0].recs); got != 100 {
		t.Errorf("full ring holds %d records, want 100", got)
	}
	if got := r.Overwritten(); got != 150 {
		t.Errorf("Overwritten = %d, want 150", got)
	}
	for i, rec := range r.records(0, nil) {
		if want := uint64(150 + i); rec.ID != want {
			t.Fatalf("records[%d].ID = %d, want %d", i, rec.ID, want)
		}
	}
}

func TestKindNames(t *testing.T) {
	for k := Kind(1); k < kindCount; k++ {
		if k.String() == "?" {
			t.Errorf("Kind(%d) has no export name", k)
		}
	}
	if Kind(0).String() != "?" || kindCount.String() != "?" {
		t.Error("out-of-range kinds should render as ?")
	}
}

// TestSamplerColumns pins the columnar semantics: each Sample records
// one row stamped with its time, gauges read point-in-time values and
// deltas report the increment since the previous row.
func TestSamplerColumns(t *testing.T) {
	var s Sampler
	g, n := 0.0, 0.0
	s.Gauge("g", func() float64 { return g })
	s.Delta("d", func() float64 { return n })
	g, n = 1, 3
	s.Sample(10)
	s.Sample(20)
	g, n = 2, 10
	s.Sample(30)
	if s.Rows() != 3 {
		t.Fatalf("Rows = %d, want 3 (times %v)", s.Rows(), s.Times())
	}
	if s.Columns() != 2 {
		t.Fatalf("Columns = %d, want 2", s.Columns())
	}
	if g, d := s.ColumnName(0), s.ColumnName(1); g != "g" || d != "d" {
		t.Errorf("column names = %q, %q, want g, d", g, d)
	}
	if ts := s.Times(); ts[0] != 10 || ts[1] != 20 || ts[2] != 30 {
		t.Errorf("Times = %v, want [10 20 30]", ts)
	}
	if gv := s.Values(0); gv[0] != 1 || gv[1] != 1 || gv[2] != 2 {
		t.Errorf("gauge series = %v, want [1 1 2]", gv)
	}
	if dv := s.Values(1); dv[0] != 3 || dv[1] != 0 || dv[2] != 7 {
		t.Errorf("delta series = %v, want [3 0 7]", dv)
	}
}

// TestSamplerValuesBeforeTick pins the nil-safety of Values on a
// sampler that never sampled (exporting an idle machine).
func TestSamplerValuesBeforeTick(t *testing.T) {
	var s Sampler
	s.Gauge("g", func() float64 { return 0 })
	if v := s.Values(0); v != nil {
		t.Errorf("Values before first Sample = %v, want nil", v)
	}
}
