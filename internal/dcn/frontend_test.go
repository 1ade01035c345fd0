package dcn

import (
	"fmt"
	"testing"

	"repro/internal/params"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// plainDrainSleep is the front-ends' idle step as the loop ran it
// before DrainIdle: one drain, then one plain Sleep, with the process
// resumed at every wake. It ignores the rule's until: the loop checks
// its own conditions at each wake.
func plainDrainSleep(ep *scenario.Endpoint, rule func(now sim.Time, drained int) (sleep, until sim.Time)) {
	n := ep.Drain()
	if d, _ := rule(ep.Clock(), n); d > 0 {
		ep.Sleep(d)
	}
}

// frontEndResult is what an RPC run must reproduce bit for bit
// whichever idle step its front-ends run, plus the engine counters, so
// a test can also compare resumes.
type frontEndResult struct {
	rep      RPCReport
	counters string
	end      sim.Time
	engine   sim.EngineCounters
}

func runFrontEnd(t *testing.T, cfg params.Config, spec RPCSpec, idle func(*scenario.Endpoint, func(now sim.Time, drained int) (sleep, until sim.Time))) frontEndResult {
	t.Helper()
	m, err := scenario.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	rep, err := runRPC(m, spec, 20_000, 400_000, idle)
	if err != nil {
		t.Fatal(err)
	}
	return frontEndResult{rep: rep, counters: m.Stats().String(), end: m.Clock(), engine: m.EngineCounters()}
}

// TestFrontEndDrainIdleMatchesLoop: the RPC front-ends' idle iterations
// run as probes (DrainIdle) must keep the plain drain-and-sleep loop's
// schedule exactly — equal reports, counter dumps, end times and events
// scheduled — on each NI with the transport off and on (with drops),
// hedging on. On the cachable-queue NIs with the transport off the
// probes must cut the resumes by at least 60%.
func TestFrontEndDrainIdleMatchesLoop(t *testing.T) {
	t.Parallel()
	spec := DefaultRPCSpec()
	spec.Hedge = 0.2
	spec.HedgeAfterCycles = 2_000
	for _, ni := range []params.NIKind{params.CNI512Q, params.CNI16Q, params.NI2w} {
		for _, transport := range []bool{false, true} {
			name := fmt.Sprintf("%v transport=%v", ni, transport)
			cfg := rpcCfg(params.TopoFlat)
			cfg.NI = ni
			if transport {
				cfg.Faults = params.Faults{Seed: 2, DropProb: 0.01}
			}
			idle := runFrontEnd(t, cfg, spec, (*scenario.Endpoint).DrainIdle)
			plain := runFrontEnd(t, cfg, spec, plainDrainSleep)
			switch {
			case idle.rep != plain.rep:
				t.Errorf("%s: reports differ:\n  DrainIdle %+v\n  plain     %+v", name, idle.rep, plain.rep)
			case idle.counters != plain.counters:
				t.Errorf("%s: counter dumps differ:\n%s\nvs\n%s", name, idle.counters, plain.counters)
			case idle.end != plain.end:
				t.Errorf("%s: end %d vs %d", name, idle.end, plain.end)
			case idle.engine.Scheduled != plain.engine.Scheduled:
				t.Errorf("%s: scheduled %d vs %d events", name, idle.engine.Scheduled, plain.engine.Scheduled)
			}
			if idle.rep.Hedges == 0 {
				t.Errorf("%s: no hedges fired", name)
			}
			t.Logf("%s: resumes %d (plain loop %d)", name, idle.engine.Resumes, plain.engine.Resumes)
			if !transport && ni != params.NI2w && 10*idle.engine.Resumes > 4*plain.engine.Resumes {
				t.Errorf("%s: DrainIdle resumes %d, want at most 40%% of the plain loop's %d", name, idle.engine.Resumes, plain.engine.Resumes)
			}
		}
	}
}
