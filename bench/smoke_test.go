package main

import (
	"runtime/debug"
	"testing"
	"time"
)

// TestSmokeDeterministic runs every workload at its smoke size twice in
// one process, the second time reading the layer counters too, and
// requires identical simulated outputs.
func TestSmokeDeterministic(t *testing.T) {
	start := time.Now()
	for _, w := range workloads {
		a := w.rep(1, true, false)
		b := w.rep(1, true, true)
		if a.err != nil || b.err != nil {
			t.Errorf("%s: %v / %v", w.name, a.err, b.err)
			continue
		}
		if da, db := digest(a.outputs), digest(b.outputs); da != db {
			t.Errorf("%s: digests differ: %s %v vs %s %v", w.name, da, a.outputs, db, b.outputs)
		}
		if a.simCycles == 0 || !(a.runS > 0) || len(b.layer) == 0 {
			t.Errorf("%s: %d cycles in %v s, %d layer metrics", w.name, a.simCycles, a.runS, len(b.layer))
		}
	}
	if d := time.Since(start); d > 10*time.Second && !raceBuild() {
		t.Errorf("smoke runs took %v, budget 10s", d)
	}
}

// raceBuild reports whether the test binary was built with -race,
// which slows the simulator several times over.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}
