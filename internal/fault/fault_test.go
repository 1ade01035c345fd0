package fault

import (
	"testing"

	"repro/internal/params"
	"repro/internal/sim"
)

func newInj(seed uint64, f params.Faults) (*sim.Engine, *sim.Stats, *Injector) {
	e := sim.NewEngine()
	st := sim.NewStats()
	f.Seed = seed
	return e, st, New(st, 4, f)
}

// TestPlanDeterministic pins the fault stream's reproducibility: two
// injectors with the same seed draw identical plan sequences, and a
// different seed diverges.
func TestPlanDeterministic(t *testing.T) {
	f := params.Faults{DropProb: 0.1, CorruptProb: 0.1, DupProb: 0.1, DelayProb: 0.1}
	_, _, a := newInj(7, f)
	_, _, b := newInj(7, f)
	_, _, c := newInj(8, f)
	same, diff := true, false
	for i := 0; i < 4096; i++ {
		pa, pb, pc := a.Plan(0, 1), b.Plan(0, 1), c.Plan(0, 1)
		if pa != pb {
			same = false
		}
		if pa != pc {
			diff = true
		}
	}
	if !same {
		t.Error("same seed drew different fault plans")
	}
	if !diff {
		t.Error("different seeds drew identical fault plans over 4096 draws")
	}
}

// TestPlanAtMostOneFault pins the decision order contract: a plan
// carries at most one fault even with every knob turned up.
func TestPlanAtMostOneFault(t *testing.T) {
	_, _, in := newInj(3, params.Faults{DropProb: 0.5, CorruptProb: 0.5, DupProb: 0.5, DelayProb: 0.5})
	for i := 0; i < 4096; i++ {
		pl := in.Plan(0, 1)
		n := 0
		for _, b := range []bool{pl.Drop, pl.Corrupt, pl.Dup, pl.Delay > 0} {
			if b {
				n++
			}
		}
		if n > 1 {
			t.Fatalf("draw %d selected %d faults at once: %+v", i, n, pl)
		}
	}
}

// TestPlanRate sanity-checks the drop probability and its counter over
// a seeded run (deterministic, so the bounds cannot flake).
func TestPlanRate(t *testing.T) {
	_, st, in := newInj(11, params.Faults{DropProb: 0.25})
	const draws = 20000
	drops := 0
	for i := 0; i < draws; i++ {
		if in.Plan(0, 1).Drop {
			drops++
		}
	}
	if lo, hi := int(0.22*draws), int(0.28*draws); drops < lo || drops > hi {
		t.Errorf("drop rate 0.25 produced %d/%d drops, want within [%d, %d]", drops, draws, lo, hi)
	}
	if got := st.Get("net.drops"); got != uint64(drops) {
		t.Errorf("net.drops = %d, want %d", got, drops)
	}
}

// TestDegradeWindow pins the time-windowed link degradation: latency
// and occupancy scale only while the window is open.
func TestDegradeWindow(t *testing.T) {
	e, _, in := newInj(1, params.Faults{
		DropProb:    0.001, // any injecting knob validates; degrade rides along
		DegradeFrom: 100, DegradeUntil: 200,
		DegradeLatencyX: 3, DegradeBandwidthX: 2,
	})
	check := func(at sim.Time, lat, occ sim.Time) {
		e.Schedule(at, func() {
			if got := in.LatencyAt(e.Now(), 10); got != lat {
				t.Errorf("t=%d: LatencyAt(10) = %d, want %d", at, got, lat)
			}
			if got := in.OccupancyAt(e.Now(), 8); got != occ {
				t.Errorf("t=%d: OccupancyAt(8) = %d, want %d", at, got, occ)
			}
		})
	}
	check(99, 10, 8)
	check(100, 30, 16)
	check(199, 30, 16)
	check(200, 10, 8)
	e.RunAll()
}

// TestPauseSchedule walks two pause windows: PausedAt flips inside each
// window, PauseEnd names the close, and expired windows retire.
func TestPauseSchedule(t *testing.T) {
	e, _, in := newInj(1, params.Faults{Pauses: []params.FaultPause{
		{Node: 1, From: 300, Until: 400}, // out of order on purpose
		{Node: 1, From: 100, Until: 200},
	}})
	type probe struct {
		at     sim.Time
		paused bool
		end    sim.Time
	}
	probes := []probe{
		{50, false, 0}, {100, true, 200}, {199, true, 200},
		{200, false, 0}, {250, false, 0},
		{300, true, 400}, {399, true, 400}, {450, false, 0},
	}
	for _, pr := range probes {
		pr := pr
		e.Schedule(pr.at, func() {
			if got := in.PausedAt(1, e.Now()); got != pr.paused {
				t.Errorf("t=%d: PausedAt = %v, want %v", pr.at, got, pr.paused)
			}
			if pr.paused {
				if got := in.PauseEnd(1); got != pr.end {
					t.Errorf("t=%d: PauseEnd = %d, want %d", pr.at, got, pr.end)
				}
			}
			if in.PausedAt(0, e.Now()) {
				t.Errorf("t=%d: node 0 has no schedule but reports paused", pr.at)
			}
		})
	}
	e.RunAll()
}

// TestCrashSchedule pins the crash edge: dead from At onward, and the
// earliest of several entries wins.
func TestCrashSchedule(t *testing.T) {
	e, _, in := newInj(1, params.Faults{Crashes: []params.FaultCrash{
		{Node: 2, At: 500}, {Node: 2, At: 800},
	}})
	e.Schedule(499, func() {
		if in.CrashedAt(2, e.Now()) {
			t.Error("t=499: crashed before its schedule")
		}
	})
	e.Schedule(500, func() {
		if !in.CrashedAt(2, e.Now()) {
			t.Error("t=500: not crashed at its schedule")
		}
		if in.CrashedAt(0, e.Now()) {
			t.Error("node 0 has no crash but reports crashed")
		}
	})
	e.RunAll()
}

// TestPlanZeroAlloc pins the per-message fault decision at zero
// allocations — it sits on every delivery when injection is enabled.
func TestPlanZeroAlloc(t *testing.T) {
	_, _, in := newInj(5, params.Faults{DropProb: 0.01, CorruptProb: 0.01})
	allocs := testing.AllocsPerRun(1000, func() { in.Plan(0, 1) })
	if allocs != 0 {
		t.Errorf("Plan allocates %.2f objects/op, want 0", allocs)
	}
}
