package harness

import (
	"bytes"
	"testing"

	"repro/internal/params"
	"repro/internal/workload"
)

// narrowFault is a one-cell sweep option set: small enough for unit
// tests, but running the full measureFault/FaultConfig path.
func narrowFault(seed uint64, drops []float64) FaultOptions {
	return FaultOptions{
		Seed:  seed,
		Drops: drops,
		NIs:   []params.NIKind{params.CNI512Q},
		Topos: []params.Topology{params.TopoTorus},
	}
}

// TestFaultSweepDeterministic pins the satellite's reproducibility
// contract: the same seed yields a byte-identical sweep (through the
// exported Data JSON, i.e. exactly what --json emits), and a
// different fault seed yields a different one.
func TestFaultSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy in -short mode")
	}
	ladder := []float64{0, 1e-2}
	render := func(seed uint64) []byte {
		_, d, _ := FaultSweep(narrowFault(seed, ladder))
		raw, err := d.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	a, b := render(7), render(7)
	if !bytes.Equal(a, b) {
		t.Fatal("same fault seed produced different sweep JSON")
	}
	if c := render(8); bytes.Equal(a, c) {
		t.Fatal("different fault seeds produced byte-identical sweeps (fault RNG ignored?)")
	}
}

// TestFaultSeedDoesNotPerturbWorkload pins RNG-stream isolation: the
// fault seed must change which frames are dropped, never what the
// workload offers. Two runs differing only in fault seed must offer
// identical traffic (same Sent, same OfferedMBps) while injecting
// different fault schedules.
func TestFaultSeedDoesNotPerturbWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy in -short mode")
	}
	run := func(seed uint64) FaultPoint {
		opt := narrowFault(seed, nil)
		return measureFault(FaultConfig(opt, params.CNI512Q, params.TopoTorus, 1e-2), 1e-2)
	}
	a, b := run(1), run(2)
	if a.Sent != b.Sent || a.OfferedMBps != b.OfferedMBps {
		t.Errorf("fault seed leaked into the workload stream: sent %d/%d, offered %g/%g",
			a.Sent, b.Sent, a.OfferedMBps, b.OfferedMBps)
	}
	if a.Drops == 0 || b.Drops == 0 {
		t.Fatalf("drop rate 1e-2 injected no drops (%d, %d)", a.Drops, b.Drops)
	}
	if a.Drops == b.Drops && a.GoodputMBps == b.GoodputMBps && a.P999Us == b.P999Us {
		t.Error("different fault seeds produced an identical fault schedule")
	}
}

// TestFaultZeroValueByteIdentical pins the conformance satellite at
// the workload level: an explicit zero-value Faults block — and a
// nonzero fault seed with nothing to inject — must leave a run
// byte-identical to the fault-free baseline on both fabrics.
func TestFaultZeroValueByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy in -short mode")
	}
	for _, topo := range []params.Topology{params.TopoFlat, params.TopoTorus} {
		base := params.Config{
			Nodes: SweepNodes, NI: params.CNI512Q, Bus: params.MemoryBus, Topology: topo,
			Workload: SweepWorkload(SweepOptions{}, FaultPerNodeMBps, 0),
		}
		run := func(f params.Faults) workload.Report {
			cfg := base
			cfg.Faults = f
			return workload.Run(cfg, SweepWarm, SweepMeasure/2)
		}
		ref := run(params.Faults{})
		seeded := run(params.Faults{Seed: 99}) // a seed with nothing to inject is inert
		for name, rep := range map[string]workload.Report{"zero": ref, "seed-only": seeded} {
			if rep.Drops != 0 || rep.Retransmits != 0 || rep.Dead != 0 {
				t.Errorf("%s %s: fault counters moved on a fault-free run: %+v", topo, name, rep)
			}
		}
		if ref.Sent != seeded.Sent || ref.Delivered != seeded.Delivered ||
			ref.GoodputMBps != seeded.GoodputMBps ||
			ref.Latency.Quantile(0.999) != seeded.Latency.Quantile(0.999) ||
			ref.Latency.Count() != seeded.Latency.Count() {
			t.Errorf("%s: an inert Faults block changed the run: %+v vs %+v", topo, ref, seeded)
		}
	}
}

// TestFaultDataShape pins the uniform-export schema: one goodput and
// one p99.9 column per rung, rows as wide as the header, ladders under
// Extra.
func TestFaultDataShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy in -short mode")
	}
	ladder := []float64{0, 1e-3}
	_, d, _ := FaultSweep(narrowFault(3, ladder))
	if want := 3 + 2*len(ladder); len(d.Header) != want {
		t.Fatalf("header %v has %d columns, want %d", d.Header, len(d.Header), want)
	}
	if len(d.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(d.Rows))
	}
	for _, row := range d.Rows {
		if len(row) != len(d.Header) {
			t.Fatalf("row %v narrower than header %v", row, d.Header)
		}
	}
	got, ok := d.Extra.([]FaultRow)
	if !ok || len(got) != 1 || len(got[0].Ladder) != len(ladder) {
		t.Fatalf("Extra = %#v, want one FaultRow with %d rungs", d.Extra, len(ladder))
	}
	for i, pt := range got[0].Ladder {
		if pt.DropRate != ladder[i] {
			t.Errorf("rung %d drop rate %g, want %g", i, pt.DropRate, ladder[i])
		}
		if pt.Sent == 0 || pt.Delivered == 0 {
			t.Errorf("rung %d carried no traffic: %+v", i, pt)
		}
	}
	// The knee must be one of the ladder rates.
	knee := got[0].KneeDropRate
	okKnee := false
	for _, r := range ladder {
		okKnee = okKnee || knee == r
	}
	if !okKnee {
		t.Errorf("knee %g is not a ladder rate %v", knee, ladder)
	}
}

// TestFaultConfigDegradeWindow pins FaultConfig's degrade plumbing:
// the window opens over the middle half of the measurement and scales
// both latency and bandwidth.
func TestFaultConfigDegradeWindow(t *testing.T) {
	opt := FaultOptions{DegradeX: 4}
	cfg := FaultConfig(opt, params.CNI512Q, params.TopoTorus, 0)
	f := cfg.Faults
	if f.DegradeFrom != FaultWarm+FaultMeasure/4 || f.DegradeUntil != FaultWarm+3*FaultMeasure/4 {
		t.Errorf("degrade window [%d, %d)", f.DegradeFrom, f.DegradeUntil)
	}
	if f.DegradeLatencyX != 4 || f.DegradeBandwidthX != 4 {
		t.Errorf("degrade multipliers %v, %v, want 4, 4", f.DegradeLatencyX, f.DegradeBandwidthX)
	}
	if !f.Transport {
		t.Error("fault sweep configs must force the transport on")
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("FaultConfig invalid: %v", err)
	}
}
