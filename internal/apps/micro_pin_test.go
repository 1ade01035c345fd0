package apps_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/params"
)

// microPinLines measures the microbenchmark values no table golden
// pins exactly: the CQ ablation's round trips in cycles with their bus
// cycles, and the congestion probes' RTT and victim bandwidth on the
// flat and torus 16-node cells, at two background gaps and both
// background patterns.
func microPinLines() []string {
	var lines []string
	variants := []struct {
		name string
		mod  func(*params.Config)
	}{
		{"all", func(*params.Config) {}},
		{"nolazy", func(c *params.Config) { c.NoLazyPointers = true }},
		{"novalid", func(c *params.Config) { c.NoValidBits = true }},
		{"nosense", func(c *params.Config) { c.NoSenseReverse = true }},
		{"update", func(c *params.Config) { c.UpdateProtocol = true }},
	}
	for _, v := range variants {
		cfg := params.Config{Nodes: 2, NI: params.CNI512Q, Bus: params.MemoryBus, QueueBlocksOverride: 32}
		v.mod(&cfg)
		rtt, bus := apps.RoundTripDetail(cfg, 64, 24)
		lines = append(lines, fmt.Sprintf("roundtrip/%s rtt %d bus %d", v.name, rtt, bus))
	}
	for _, ni := range []params.NIKind{params.NI2w, params.CNI4, params.CNI16Q, params.CNI512Q, params.CNI16Qm} {
		for _, topo := range []params.Topology{params.TopoFlat, params.TopoTorus} {
			for _, gap := range []int{4000, 1000} {
				for _, pattern := range []apps.BgPattern{apps.BgHotspot, apps.BgAllToAll} {
					cfg := params.Config{Nodes: 16, NI: ni, Bus: params.MemoryBus, Topology: topo}
					cell := fmt.Sprintf("%s/%s/gap%d/%s", ni, topo, gap, pattern)
					rtt := apps.ProbeRTT(cfg, 64, 8, gap, pattern)
					bw := apps.ProbeBandwidth(cfg, 244, 120, gap, pattern)
					lines = append(lines, fmt.Sprintf("probe/%s rtt %d bw %s", cell, rtt, strconv.FormatFloat(bw, 'g', -1, 64)))
				}
			}
		}
	}
	return lines
}

// TestMicroPinned pins the exact values microPinLines measures. The
// golden was generated before RoundTripDetail/ProbeRTT and
// Bandwidth/ProbeBandwidth were merged into one ping-pong and one
// stream loop; regenerate it (-update) only for a deliberate change to
// the timing model.
func TestMicroPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("80 congestion probe runs in -short mode")
	}
	got := strings.Join(microPinLines(), "\n") + "\n"
	path := filepath.Join("testdata", "micro_pin.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				w := "<missing>"
				if i < len(wl) {
					w = wl[i]
				}
				t.Fatalf("line %d:\n got  %s\n want %s", i+1, gl[i], w)
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
}
