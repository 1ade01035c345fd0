package trace_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/params"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenScenario runs the pinned telemetry scenario — a 4-node torus
// under CNI512Q with a fixed message pattern (node 0 streams three
// 400-byte messages to its antipode and one to a neighbour, node 1
// sends two to node 2) — and returns the run result plus per-node
// delivery counts. The same scenario underlies the golden export, the
// byte-determinism test, and the inertness comparisons.
func goldenScenario(t *testing.T, spec params.Trace, f params.Faults) (*scenario.Machine, *scenario.Trace, [4]int) {
	t.Helper()
	cfg := params.Config{
		Nodes: 4, NI: params.CNI512Q, Bus: params.MemoryBus,
		Topology: params.TopoTorus, Trace: spec, Faults: f,
	}
	m, err := scenario.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const h = 7
	var got [4]int
	// Every node polls until every delivery has landed (the sim is
	// cooperative, so the shared array is safe): with the reliable
	// transport on, a sender that stops polling stops retransmitting,
	// and a dropped frame would spin the receivers forever.
	allDone := func() bool { return got[1] >= 1 && got[2] >= 2 && got[3] >= 3 }
	node := func(id, sendDst, sends, size int) scenario.NodeFunc {
		return func(ep *scenario.Endpoint) {
			ep.Handle(h, func(d *scenario.Delivery) { got[id]++ })
			for i := 0; i < sends; i++ {
				ep.SendTo(sendDst, h, size, nil)
			}
			ep.PollUntil(allDone)
		}
	}
	sc := scenario.New()
	sc.At(0, func(ep *scenario.Endpoint) {
		ep.Handle(h, func(d *scenario.Delivery) { got[0]++ })
		for i := 0; i < 3; i++ {
			ep.SendTo(3, h, 400, nil)
		}
		ep.SendTo(1, h, 64, nil)
		ep.PollUntil(allDone)
	})
	sc.At(1, node(1, 2, 2, 64))
	sc.At(2, node(2, 0, 0, 0))
	sc.At(3, node(3, 0, 0, 0))
	tr := m.Run(sc)
	return m, tr, got
}

// exportGolden renders the golden scenario's trace.
func exportGolden(t *testing.T) ([]byte, trace.Summary) {
	t.Helper()
	m, _, got := goldenScenario(t,
		params.Trace{Enabled: true, RingSize: 4096, SampleEvery: 500}, params.Faults{})
	defer m.Close()
	if got != [4]int{0, 1, 2, 3} {
		t.Fatalf("deliveries = %v, want [0 1 2 3]", got)
	}
	var buf bytes.Buffer
	sum, err := m.WriteTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sum
}

// TestTraceGoldenTorus4 pins the 4-node torus scenario's Chrome trace
// JSON byte-for-byte (regenerate with -update) and validates the
// schema Perfetto expects: every event carries ph/pid/name, spans
// carry ts/dur/tid, instants ts/s, counters ts/args.
func TestTraceGoldenTorus4(t *testing.T) {
	out, sum := exportGolden(t)
	if sum.UserSpans != 6 {
		t.Errorf("UserSpans = %d, want 6 (one per delivered user message)", sum.UserSpans)
	}
	if sum.FragSpans == 0 || sum.LinkSpans == 0 || sum.Samples == 0 {
		t.Errorf("summary %+v: fragment, link, and sample tracks must all be populated", sum)
	}
	if sum.Overwritten != 0 {
		t.Errorf("golden ring wrapped (%d lost): grow RingSize", sum.Overwritten)
	}

	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("export is not JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	for i, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("event %d has no pid: %v", i, ev)
		}
		if _, ok := ev["name"].(string); !ok {
			t.Fatalf("event %d has no name: %v", i, ev)
		}
		switch ph {
		case "X":
			if _, ok := ev["ts"].(float64); !ok {
				t.Fatalf("span %d has no ts: %v", i, ev)
			}
			if _, ok := ev["dur"].(float64); !ok {
				t.Fatalf("span %d has no dur: %v", i, ev)
			}
			if _, ok := ev["tid"].(float64); !ok {
				t.Fatalf("span %d has no tid: %v", i, ev)
			}
		case "i":
			if _, ok := ev["ts"].(float64); !ok {
				t.Fatalf("instant %d has no ts: %v", i, ev)
			}
			if _, ok := ev["s"].(string); !ok {
				t.Fatalf("instant %d has no scope: %v", i, ev)
			}
		case "C":
			if _, ok := ev["ts"].(float64); !ok {
				t.Fatalf("counter %d has no ts: %v", i, ev)
			}
			if _, ok := ev["args"].(map[string]any); !ok {
				t.Fatalf("counter %d has no args: %v", i, ev)
			}
		case "M":
			if _, ok := ev["args"].(map[string]any); !ok {
				t.Fatalf("metadata %d has no args: %v", i, ev)
			}
		default:
			t.Fatalf("event %d has unknown phase %q", i, ph)
		}
	}

	golden := filepath.Join("testdata", "torus4_chrome.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/trace -run TraceGolden -update)", err)
	}
	if !bytes.Equal(out, want) {
		t.Errorf("export drifted from %s (%d bytes vs %d): a timing- or export-format change must regenerate the golden deliberately (-update)",
			golden, len(out), len(want))
	}
}

// TestTraceByteDeterminism pins the export contract the CI
// determinism job re-runs (-count=2): identical machines and
// scenarios produce byte-identical trace JSON.
func TestTraceByteDeterminism(t *testing.T) {
	a, _ := exportGolden(t)
	b, _ := exportGolden(t)
	if !bytes.Equal(a, b) {
		t.Fatal("two identical runs exported different trace bytes")
	}
}

// TestTraceRecorderInert pins the other half of the zero-overhead
// contract: a recorder-only trace (no sampler) leaves the run result
// — end time, every counter delta, every histogram — and the scheduled
// and probed counts exactly as an untraced build, because hooks
// neither consume simulated time nor schedule events.
func TestTraceRecorderInert(t *testing.T) {
	assertTraceInert(t, params.Trace{Enabled: true})
}

// TestTraceSamplerInert pins the sampler's behavioural footprint: it
// reads between slices of Run and schedules nothing, so a sampled run
// — with or without the recorder, at a period that divides the run or
// not — leaves the run result (end time included) and the scheduled
// and probed counts exactly as an untraced run, and records rows.
func TestTraceSamplerInert(t *testing.T) {
	assertTraceInert(t, params.Trace{Enabled: true, SampleEvery: 500}, params.Trace{SampleEvery: 7})
}

// assertTraceInert runs the golden scenario untraced and under each
// spec, with and without faults, and requires identical deliveries,
// run results and scheduled/probed counts.
func assertTraceInert(t *testing.T, specs ...params.Trace) {
	t.Helper()
	for _, f := range []params.Faults{{}, {Seed: 3, DropProb: 0.02, Transport: true}} {
		m0, tr0, got0 := goldenScenario(t, params.Trace{}, f)
		m0.Close()
		for _, spec := range specs {
			m1, tr1, got1 := goldenScenario(t, spec, f)
			m1.Close()
			if got0 != got1 {
				t.Errorf("faults=%+v trace=%+v: deliveries diverged: %v vs %v", f, spec, got0, got1)
			}
			if !reflect.DeepEqual(tr0, tr1) {
				t.Errorf("faults=%+v trace=%+v: traced run result diverged from untraced:\nuntraced: %+v\ntraced:   %+v", f, spec, tr0, tr1)
			}
			if c0, c1 := m0.EngineCounters(), m1.EngineCounters(); c0.Scheduled != c1.Scheduled || c0.Probed != c1.Probed {
				t.Errorf("faults=%+v trace=%+v: engine counters %+v, untraced %+v", f, spec, c1, c0)
			}
			if spec.SampleEvery > 0 && m1.TraceSampler().Rows() == 0 {
				t.Errorf("faults=%+v trace=%+v: no samples", f, spec)
			}
		}
	}
}

// TestSamplerReArms pins the run loop's sampling across back-to-back
// runs: rows fall one period apart from each run's start, the last one
// at or past the run's end, and the next run samples again. A run
// stopped at a horizon leaves its next row due, so stepping the first
// run through horizons 250 cycles apart records the same rows.
func TestSamplerReArms(t *testing.T) {
	const every = 100
	build := func() (*scenario.Machine, *scenario.Scenario) {
		m, err := scenario.Build(params.Config{Nodes: 4, NI: params.CNI512Q, Bus: params.MemoryBus,
			Topology: params.TopoTorus, Trace: params.Trace{SampleEvery: every}})
		if err != nil {
			t.Fatal(err)
		}
		return m, scenario.New().
			At(0, func(ep *scenario.Endpoint) { ep.Send(3, 400, nil) }).
			At(3, func(ep *scenario.Endpoint) { ep.Recv() })
	}
	m, sc := build()
	defer m.Close()
	s := m.TraceSampler()
	from := 0
	for run := 0; run < 2; run++ {
		tr := m.Run(sc)
		ts := s.Times()[from:]
		if len(ts) == 0 {
			t.Fatalf("run %d [%d, %d]: no rows", run, tr.Start, tr.End)
		}
		for i, at := range ts {
			if want := uint64(tr.Start) + uint64(i+1)*every; at != want {
				t.Fatalf("run %d: row %d at %d, want %d", run, i, at, want)
			}
		}
		if last := ts[len(ts)-1]; last < uint64(tr.End) || last >= uint64(tr.End)+every {
			t.Errorf("run %d ended at %d, last row at %d: want one row within a period past the end", run, tr.End, last)
		}
		if run == 0 {
			from = s.Rows()
		}
	}

	stepped, sc := build()
	defer stepped.Close()
	last := sim.Time(s.Times()[from-1])
	stepped.RunUntil(sc, 250)
	for h := sim.Time(500); h < last; h += 250 {
		stepped.Advance(h)
	}
	stepped.Advance(last)
	got := stepped.TraceSampler()
	if !reflect.DeepEqual(got.Times(), s.Times()[:from]) {
		t.Fatalf("stepped rows at %v, want %v", got.Times(), s.Times()[:from])
	}
	for c := 0; c < s.Columns(); c++ {
		if !reflect.DeepEqual(got.Values(c), s.Values(c)[:from]) {
			t.Errorf("column %s: stepped %v, want %v", s.ColumnName(c), got.Values(c), s.Values(c)[:from])
		}
	}
}
