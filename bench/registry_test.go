package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

func TestRegistryMatchesBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file %+v, benchmark {%s %s}", i, f.Workloads[i], w.name, w.why)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := f.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end-to-end %d: file %+v, benchmark %+v", i, got, m)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := f.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer %d: file %+v, benchmark %+v", i, got, m)
		}
	}
}

func TestRegistryRules(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(endToEnd), len(perLayer))
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(workloads))
	}
	isWorkload := map[string]bool{}
	for _, w := range workloads {
		isWorkload[w.name] = true
		if !nameRE.MatchString(w.name) || w.why == "" || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
	isEndToEnd := map[string]bool{}
	seen := map[string]bool{}
	for _, m := range append(append([]metric{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.name) || seen[m.name] {
			t.Errorf("metric %q: bad or repeated name", m.name)
		}
		seen[m.name] = true
		if !unitRE.MatchString(m.unit) || (m.better != "higher" && m.better != "lower") {
			t.Errorf("metric %q: unit %q, better %q", m.name, m.unit, m.better)
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		isEndToEnd[m.name] = true
		if !(m.bound > 0 && m.bound <= 0.25) {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", m.name, m.bound)
		}
		hasSetup = hasSetup || (m.name == mSetup && m.unit == "s" && m.better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric in seconds, lower better")
	}
	for _, m := range perLayer {
		if !isEndToEnd[m.moves] || len(m.on) == 0 {
			t.Errorf("per-layer %q: moves %q on %v", m.name, m.moves, m.on)
		}
		for _, w := range m.on {
			if !isWorkload[w] {
				t.Errorf("per-layer %q: unknown workload %q", m.name, w)
			}
		}
	}
}

// TestOutputNamesMatchRegistry checks the final JSON line of both
// modes carries exactly the registered metrics.
func TestOutputNamesMatchRegistry(t *testing.T) {
	for _, trace := range []bool{false, true} {
		res := &result{o: options{workload: wTorus, seed: 1, trace: trace}, procs: 1,
			reps:      []repStat{{wall: 1, setup: 0.1, run: 0.9, cyclesPerS: 1e6, digest: "d"}},
			attempted: 1, peakRSS: 8, ledger: ledger{samples: map[string]int64{}}, layer: map[string]float64{}}
		var buf bytes.Buffer
		if err := res.print(&buf); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var line resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("trace=%v: last line: %v", trace, err)
		}
		want := endToEnd
		if trace {
			want = perLayer
		}
		var names, wantNames []string
		for name, v := range line.Metrics {
			names = append(names, name)
			if v.Unit == "" {
				t.Errorf("trace=%v: %s has no unit", trace, name)
			}
		}
		for _, m := range want {
			wantNames = append(wantNames, m.name)
		}
		sort.Strings(names)
		sort.Strings(wantNames)
		if strings.Join(names, ",") != strings.Join(wantNames, ",") {
			t.Errorf("trace=%v: output metrics %v, registry %v", trace, names, wantNames)
		}
		if !line.Correct || line.Attempted != 1 || line.Failed != 0 {
			t.Errorf("trace=%v: result %+v", trace, line)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64 // statistics.quantiles(xs, n=4)
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		s := summarize(c.xs)
		if got := [3]float64{s.p25, s.median, s.p75}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestJoinTraceValue(t *testing.T) {
	o, err := parseArgs([]string{"--workload", wRPC, "--seed", "4", "--seconds", "3", "--trace", "1"})
	if err != nil || !o.trace || o.seed != 4 || o.seconds != 3 || o.workload != wRPC {
		t.Errorf("parseArgs = %+v, %v", o, err)
	}
	if o, err := parseArgs([]string{"--workload=all", "--trace"}); err != nil || !o.trace {
		t.Errorf("bare --trace: %+v, %v", o, err)
	}
	if _, err := parseArgs([]string{"--seed", "1"}); err == nil {
		t.Error("missing --workload accepted")
	}
}
