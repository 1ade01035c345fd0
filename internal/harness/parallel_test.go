package harness

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/params"
	"repro/internal/sim"
)

// TestSweepCellPanicReachesCaller pins the failure contract of the
// parallel sweep driver: a panic in one cell — here a simulated
// process's, surfacing as *sim.ProcessPanic — comes back out of the
// sweep on the calling goroutine, labelled with its NI/fabric cell,
// instead of killing the host from a worker goroutine. With two bad
// cells the lower-index one is reported, as a serial run would.
func TestSweepCellPanicReachesCaller(t *testing.T) {
	bad := func(cfg params.Config) bool {
		return cfg.Topology == params.TopoTorus && (cfg.NI == params.NI2w || cfg.NI == params.CNI16Q)
	}
	sweep := gridSweep[int]{
		name: "panicky", title: "panicky",
		nis: []params.NIKind{params.NI2w, params.CNI4, params.CNI16Q},
		measure: func(cfg params.Config, note func(string)) int {
			if !bad(cfg) {
				return 1
			}
			eng := sim.NewEngine()
			defer eng.Stop()
			eng.Spawn("bad", func(p *sim.Process) {
				p.Sleep(7)
				panic("boom")
			})
			eng.RunAll()
			return 0
		},
		cols: []col[int]{{"v", "v", func(v int) string { return "x" }}},
	}
	defer func() {
		cp, ok := recover().(*CellPanic)
		if !ok {
			t.Fatalf("sweep did not re-raise a *CellPanic")
		}
		if cp.Cell != "NI2w/torus" {
			t.Errorf("panic names cell %q, want the lowest-index bad cell NI2w/torus", cp.Cell)
		}
		var pp *sim.ProcessPanic
		if !errors.As(cp, &pp) || pp.Value != "boom" || pp.At != 7 {
			t.Errorf("cell panic does not carry the process panic: %v", cp.Value)
		}
		if msg := cp.Error(); !strings.Contains(msg, "NI2w/torus") || !strings.Contains(msg, "boom") {
			t.Errorf("message %q should name the cell and the panic value", msg)
		}
	}()
	sweep.run()
	t.Fatal("sweep returned normally despite a panicking cell")
}
