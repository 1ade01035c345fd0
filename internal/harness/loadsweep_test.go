package harness

import (
	"runtime"
	"strconv"
	"testing"

	"repro/internal/params"
)

// TestLoadSweepTorusSaturatesBelowFlat pins the subsystem's headline
// result for the Zipf-hotspot workload: the CQ flagship saturates at
// a strictly lower offered load on the torus than on the paper's
// contention-free flat network, because converging hotspot flows
// queue on shared links before the hot node's NI becomes the limit.
func TestLoadSweepTorusSaturatesBelowFlat(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("load sweep in -short mode")
	}
	_, _, rows := LoadSweep(SweepOptions{NIs: []params.NIKind{params.CNI512Q}})
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want flat+torus", len(rows))
	}
	flat, torus := rows[0], rows[1]
	if flat.Topology != "flat" || torus.Topology != "torus" {
		t.Fatalf("row order: %s, %s", flat.Topology, torus.Topology)
	}
	if !(torus.KneeOfferedMBps < flat.KneeOfferedMBps) {
		t.Errorf("torus knee %.1f MB/s not strictly below flat knee %.1f MB/s",
			torus.KneeOfferedMBps, flat.KneeOfferedMBps)
	}
	if !(torus.SaturationMBps < flat.SaturationMBps) {
		t.Errorf("torus saturation %.1f MB/s not strictly below flat %.1f MB/s",
			torus.SaturationMBps, flat.SaturationMBps)
	}
	// Tail latency at matched relative load (90% of each fabric's own
	// knee) is worse on the torus: link queueing is extra delay the
	// flat model cannot express.
	if !(torus.AtFrac[2].P99Us > flat.AtFrac[2].P99Us) {
		t.Errorf("torus p99@90 %.1f us should exceed flat's %.1f us",
			torus.AtFrac[2].P99Us, flat.AtFrac[2].P99Us)
	}
}

// TestLoadSweepSerialParallelIdentical extends the parallel-harness
// contract to the load sweep: fanning rows out over host cores must be
// byte-identical to a serial run, which runCells makes at GOMAXPROCS 1.
func TestLoadSweepSerialParallelIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("load sweep in -short mode")
	}
	opt := SweepOptions{NIs: []params.NIKind{params.CNI16Q}}
	par, _, _ := LoadSweep(opt)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ser, _, _ := LoadSweep(opt)
	if par.String() != ser.String() {
		t.Fatalf("parallel and serial sweeps differ:\n--- parallel\n%s--- serial\n%s", par.String(), ser.String())
	}
}

// TestLoadSweepShape checks the ladder and table invariants on a
// cheap single-NI sweep.
func TestLoadSweepShape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("load sweep in -short mode")
	}
	tb, _, rows := LoadSweep(SweepOptions{NIs: []params.NIKind{params.CNI4}, Topos: []params.Topology{params.TopoFlat}})
	if len(tb.Rows) != 1 || len(rows) != 1 {
		t.Fatalf("want one row, got %d/%d", len(tb.Rows), len(rows))
	}
	if len(tb.Header) != 13 {
		t.Fatalf("header width = %d, want 13", len(tb.Header))
	}
	r := rows[0]
	if len(r.Ladder) < 2 {
		t.Fatalf("ladder has %d rungs", len(r.Ladder))
	}
	// Ladder rungs climb geometrically and the knee is one of them.
	for i := 1; i < len(r.Ladder); i++ {
		if !(r.Ladder[i].OfferedMBps > r.Ladder[i-1].OfferedMBps) {
			t.Errorf("ladder not increasing at rung %d", i)
		}
	}
	if r.KneeOfferedMBps <= 0 || r.SaturationMBps <= 0 {
		t.Error("knee and saturation must be positive")
	}
	if !r.KneeTracked {
		t.Error("CNI4/flat must sustain at least the base rung")
	}
	// Every AtFrac point carries latency percentiles in order.
	for i, pt := range r.AtFrac {
		if !(pt.P50Us <= pt.P90Us && pt.P90Us <= pt.P99Us && pt.P99Us <= pt.P999Us) {
			t.Errorf("frac %d: percentiles out of order: %+v", i, pt)
		}
		if pt.Delivered == 0 {
			t.Errorf("frac %d: no traffic delivered", i)
		}
	}
	// Rendered cells are numeric.
	for c := 2; c < len(tb.Header); c++ {
		if _, err := strconv.ParseFloat(tb.Cell(0, c), 64); err != nil {
			t.Errorf("cell %d %q not numeric: %v", c, tb.Cell(0, c), err)
		}
	}
}

// TestLoadSweepClosedLoop: the closed-loop ladder reaches a plateau
// and reports it as saturation.
func TestLoadSweepClosedLoop(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("load sweep in -short mode")
	}
	_, _, rows := LoadSweep(SweepOptions{Arrival: params.ArrivalClosed,
		NIs: []params.NIKind{params.CNI512Q}, Topos: []params.Topology{params.TopoFlat}})
	r := rows[0]
	if r.SaturationMBps <= 0 || r.KneeOfferedMBps != r.SaturationMBps {
		t.Errorf("closed-loop saturation should be the plateau goodput: %+v", r)
	}
	if len(r.Ladder) < 2 {
		t.Errorf("closed ladder has %d rungs", len(r.Ladder))
	}
	for i, pt := range r.Ladder {
		if pt.Clients == 0 {
			t.Errorf("rung %d: missing client count", i)
		}
	}
}
