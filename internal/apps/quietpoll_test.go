package apps_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/dcn"
	"repro/internal/params"
	"repro/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite testdata/quietpoll.golden from the current model")

// quietPollRun is one pinned run: it builds and runs its own machine,
// or runs an apps entry point whose machine the SetBuilt hook catches.
type quietPollRun struct {
	name string
	run  func(t *testing.T) *scenario.Machine
}

var (
	smokeCfg = params.Config{Nodes: 16, NI: params.CNI16Qm, Bus: params.MemoryBus}
	microCfg = params.Config{Nodes: 2, NI: params.CNI512Q, Bus: params.MemoryBus}
	probeCfg = params.Config{Nodes: 16, NI: params.CNI512Q, Bus: params.MemoryBus}
)

// smokeApps returns the five Table 3 apps at the benchmark's smoke
// sizes (seed 1).
func smokeApps() []apps.App {
	sp, ga, em, md, ab := apps.NewSpsolve(), apps.NewGauss(), apps.NewEm3d(), apps.NewMoldyn(), apps.NewAppbt()
	sp.Seed, em.Seed, ab.Seed = 1, 1, 1
	sp.Elements, sp.Levels = 64, 4
	ga.N = 16
	em.GraphNodes, em.Iters = 64, 1
	md.Particles, md.Iters = 128, 1
	ab.CubeDim, ab.Iters = 4, 1
	return []apps.App{sp, ga, em, md, ab}
}

// caught runs fn and returns the one machine it built.
func caught(t *testing.T, fn func()) *scenario.Machine {
	t.Helper()
	var ms []*scenario.Machine
	apps.SetBuilt(func(m *scenario.Machine) { ms = append(ms, m) })
	defer apps.SetBuilt(nil)
	fn()
	if len(ms) != 1 {
		t.Fatalf("run built %d machines, want 1", len(ms))
	}
	return ms[0]
}

// quietPollRuns lists the pinned runs: every workload shape whose
// receive loop polls an idle NI, on the cachable-queue NIs (whose
// empty polls hit in the cache) and on an uncached one.
func quietPollRuns() []quietPollRun {
	var runs []quietPollRun
	for _, a := range smokeApps() {
		runs = append(runs, quietPollRun{"app/" + a.Name(), func(t *testing.T) *scenario.Machine {
			return caught(t, func() { a.Run(smokeCfg) })
		}})
	}
	gauss := smokeApps()[1]
	runs = append(runs, quietPollRun{"app/gauss/NI2w", func(t *testing.T) *scenario.Machine {
		cfg := smokeCfg
		cfg.NI = params.NI2w
		return caught(t, func() { gauss.Run(cfg) })
	}})
	micro := func(name string, cfg params.Config) {
		runs = append(runs,
			quietPollRun{"latency/" + name, func(t *testing.T) *scenario.Machine {
				return caught(t, func() { apps.RoundTrip(cfg, 64, 8) })
			}},
			quietPollRun{"bandwidth/" + name, func(t *testing.T) *scenario.Machine {
				return caught(t, func() { apps.Bandwidth(cfg, 256, 40) })
			}})
	}
	micro("CNI512Q", microCfg)
	qm := microCfg
	qm.NI = params.CNI16Qm
	micro("CNI16Qm", qm)
	novalid := microCfg
	novalid.NoValidBits = true
	micro("CNI512Q-novalidbits", novalid)
	upd := microCfg
	upd.UpdateProtocol = true
	micro("CNI512Q-update", upd)
	cni4 := microCfg
	cni4.NI = params.CNI4
	micro("CNI4", cni4)
	probe := func(name string, cfg params.Config, pattern apps.BgPattern) {
		runs = append(runs, quietPollRun{"probertt/" + name, func(t *testing.T) *scenario.Machine {
			return caught(t, func() { apps.ProbeRTT(cfg, 64, 4, 200, pattern) })
		}})
	}
	probe("hotspot/flat", probeCfg, apps.BgHotspot)
	probe("alltoall/flat", probeCfg, apps.BgAllToAll)
	torus := probeCfg
	torus.Topology = params.TopoTorus
	probe("hotspot/torus", torus, apps.BgHotspot)
	collective := func(name string, cfg params.Config) {
		runs = append(runs, quietPollRun{"collective/ring-allreduce/" + name, func(t *testing.T) *scenario.Machine {
			m, err := scenario.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if _, err := dcn.RunCollectiveOn(m, dcn.CollectiveSpec{Schedule: dcn.RingAllreduce, Bytes: 4096}); err != nil {
				t.Fatal(err)
			}
			return m
		}})
	}
	collective("CNI16Q", params.Config{Nodes: 16, NI: params.CNI16Q, Bus: params.MemoryBus})
	// 32 nodes on four shards: probes dispatched by every shard's engine.
	collective("CNI16Q/torus-4shards", params.Config{Nodes: 32, NI: params.CNI16Q, Bus: params.MemoryBus,
		Topology: params.TopoTorus, Shards: 4})
	return runs
}

// dumpRun renders one finished run: the final cycle, the events its
// engine scheduled, and every counter.
func dumpRun(b *strings.Builder, name string, m *scenario.Machine) {
	st := m.Stats()
	fmt.Fprintf(b, "== %s\ncycle %d\nevents %d\n", name, m.Clock(), m.EventsScheduled())
	for _, c := range st.Counters() {
		fmt.Fprintf(b, "%s %d\n", c, st.Get(c))
	}
}

// TestQuietPollGolden pins, for every run in quietPollRuns, the final
// cycle, the scheduled-event count and the full counter dump (load
// hits and empty polls included). How the engine dispatches an idle
// receive loop is host-side bookkeeping: none of these may move.
// Regenerate deliberately with -update.
func TestQuietPollGolden(t *testing.T) {
	var b strings.Builder
	for _, r := range quietPollRuns() {
		dumpRun(&b, r.name, r.run(t))
	}
	path := filepath.Join("testdata", "quietpoll.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("line %d: got %q, want %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
}

// TestQuietPollProbeCoverage guards the fast path itself, which the
// golden cannot see: on Gauss at smoke size (4 of every 5 scheduled
// events are idle-poll wakes), at least 95% of the empty polls must be
// run by engine probes rather than by the polling process. Each probed
// empty poll is two quiet-poll re-arms (the loop overhead's and the
// load's), so their sum over the endpoints (QuietProbed) halved counts
// them, plus at most one per spin that ends at a load. The engine's
// Probed count is no measure here: cache-hit runs of LoadRange and
// StoreRange are probes too. An uncached NI never spins.
func TestQuietPollProbeCoverage(t *testing.T) {
	gauss := smokeApps()[1]
	for _, c := range []struct {
		ni     params.NIKind
		minPct float64
	}{{params.CNI16Qm, 95}, {params.CNI16Q, 95}, {params.CNI512Q, 95}, {params.NI2w, 0}} {
		cfg := smokeCfg
		cfg.NI = c.ni
		m := caught(t, func() { gauss.Run(cfg) })
		st := m.Stats()
		var empty, quiet uint64
		for _, name := range st.Counters() {
			if strings.HasSuffix(name, ".ni.recv.poll.empty") {
				empty += st.Get(name)
			}
		}
		for id := range m.Nodes() {
			quiet += m.Endpoint(id).QuietProbed()
		}
		pct := 100 * float64(quiet/2) / float64(empty)
		t.Logf("%s: %d empty polls, %d quiet-poll probes (%.1f%%), %d probed wakes in all", c.ni, empty, quiet, pct, m.EngineCounters().Probed)
		if c.minPct == 0 && quiet != 0 {
			t.Errorf("%s: %d quiet-poll probes on an uncached-poll NI", c.ni, quiet)
		}
		if pct < c.minPct {
			t.Errorf("%s: %.1f%% of empty polls probed, want at least %.0f%%", c.ni, pct, c.minPct)
		}
	}
}
