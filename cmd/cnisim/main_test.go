package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	cni "repro"
)

func TestParseConfig(t *testing.T) {
	cases := []struct {
		ni, bus, topo string
		ok            bool
	}{
		{"NI2w", "memory", "flat", true},
		{"ni2w", "cache", "flat", true},
		{"CNI16Qm", "memory", "flat", true},
		{"CNI16Qm", "io", "flat", false}, // invalid per §2.3
		{"cni512q", "io", "flat", true},
		{"bogus", "memory", "flat", false},
		{"CNI4", "warp", "flat", false},
		{"CNI512Q", "memory", "torus", true},
		{"CNI512Q", "memory", "ring", false},
	}
	for _, c := range cases {
		cfg, err := parseConfig(c.ni, c.bus, c.topo, 2)
		if c.ok && err != nil {
			t.Errorf("parseConfig(%q,%q,%q): unexpected error %v", c.ni, c.bus, c.topo, err)
		}
		if !c.ok && err == nil {
			t.Errorf("parseConfig(%q,%q,%q): expected error", c.ni, c.bus, c.topo)
		}
		if err == nil && c.topo == "torus" && cfg.Topology != cni.TopoTorus {
			t.Errorf("parseConfig(%q,%q,%q): topology not threaded through", c.ni, c.bus, c.topo)
		}
	}
}

func TestRunStaticCommands(t *testing.T) {
	for _, cmd := range []string{"list", "table1", "table2", "table3", "table4"} {
		if err := run(cmd, nil); err != nil {
			t.Errorf("run(%q): %v", cmd, err)
		}
	}
	if err := run("bogus", nil); err == nil {
		t.Error("unknown command should error")
	}
}

// TestListJSON pins the machine-readable registry listing: every
// registered experiment appears with its name, title, and tags.
func TestListJSON(t *testing.T) {
	out := captureStdout(t, func() {
		if err := run("list", []string{"--json"}); err != nil {
			t.Fatalf("list --json: %v", err)
		}
	})
	var entries []struct {
		Name  string   `json:"name"`
		Title string   `json:"title"`
		Tags  []string `json:"tags"`
	}
	if err := json.Unmarshal([]byte(out), &entries); err != nil {
		t.Fatalf("list --json output is not JSON: %v\n%s", err, out)
	}
	if len(entries) != len(cni.ExperimentNames()) {
		t.Fatalf("listed %d experiments, registry has %d", len(entries), len(cni.ExperimentNames()))
	}
	for i, name := range cni.ExperimentNames() {
		e := entries[i]
		if e.Name != name || e.Title == "" || len(e.Tags) == 0 {
			t.Errorf("entry %d = %+v, want name %q with title and tags", i, e, name)
		}
	}
}

// TestUniformExportFlags checks the shared --json/--csv exporters on
// an experiment command: the files exist, the JSON parses as the
// shared Data shape, and the CSV header matches it.
func TestUniformExportFlags(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "t.json")
	csvPath := filepath.Join(dir, "t.csv")
	if err := run("table3", []string{"--json=" + jsonPath, "--csv=" + csvPath}); err != nil {
		t.Fatalf("table3 export: %v", err)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var d cni.Data
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("exported JSON does not parse as Data: %v", err)
	}
	if d.Name != "table3" || len(d.Rows) == 0 {
		t.Fatalf("exported Data = %+v", d)
	}
	csvRaw, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	firstLine, _, _ := strings.Cut(string(csvRaw), "\n")
	if !strings.Contains(firstLine, "Benchmark") {
		t.Errorf("CSV header %q does not carry the table header", firstLine)
	}
	// Table 3's input column embeds commas; RFC-4180 quoting must keep
	// the column count stable.
	if !strings.Contains(string(csvRaw), `"`) {
		t.Error("CSV with comma-bearing cells should be quoted")
	}
}

// TestExportToStdoutIsPure pins that "--json=-" yields a stream jq
// could parse: the human-readable table must be suppressed, leaving
// nothing but the JSON document.
func TestExportToStdoutIsPure(t *testing.T) {
	out := captureStdout(t, func() {
		if err := run("table1", []string{"--json=-"}); err != nil {
			t.Fatalf("table1 --json=-: %v", err)
		}
	})
	var d cni.Data
	if err := json.Unmarshal([]byte(out), &d); err != nil {
		t.Fatalf("stdout is not pure JSON: %v\n%s", err, out)
	}
	if d.Name != "table1" {
		t.Fatalf("decoded %+v", d)
	}
	// Combining "-" with a file exporter must keep stdout pure too:
	// the "wrote <path>" announcement goes to stderr.
	csvPath := filepath.Join(t.TempDir(), "t.csv")
	out = captureStdout(t, func() {
		if err := run("table1", []string{"--json=-", "--csv=" + csvPath}); err != nil {
			t.Fatalf("table1 --json=- --csv=file: %v", err)
		}
	})
	if err := json.Unmarshal([]byte(out), &d); err != nil {
		t.Fatalf("stdout polluted when combining - with a file export: %v\n%s", err, out)
	}
	if _, err := os.Stat(csvPath); err != nil {
		t.Fatalf("csv file not written: %v", err)
	}
	// Both formats cannot share stdout.
	if err := run("table1", []string{"--json=-", "--csv=-"}); err == nil {
		t.Error("--json=- --csv=- should error instead of interleaving formats")
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := r.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		done <- b.String()
	}()
	defer func() {
		w.Close()
		os.Stdout = old
	}()
	fn()
	w.Close()
	os.Stdout = old
	return <-done
}

func TestRunMicroCommands(t *testing.T) {
	if err := run("latency", []string{"--ni=CNI512Q", "--bus=memory", "--size=32"}); err != nil {
		t.Errorf("latency: %v", err)
	}
	if err := run("bandwidth", []string{"--ni=NI2w", "--bus=memory", "--size=64"}); err != nil {
		t.Errorf("bandwidth: %v", err)
	}
	if err := run("latency", []string{"--ni=CNI512Q", "--bus=memory", "--size=32", "--topology=torus"}); err != nil {
		t.Errorf("latency torus: %v", err)
	}
	if err := run("incast", []string{"--ni=CNI512Q", "--bus=memory", "--nodes=4", "--count=6", "--topology=torus"}); err != nil {
		t.Errorf("incast: %v", err)
	}
	if err := run("exchange", []string{"--ni=CNI512Q", "--bus=memory", "--nodes=4", "--rounds=2"}); err != nil {
		t.Errorf("exchange: %v", err)
	}
}

func TestRunLoadPoint(t *testing.T) {
	if err := run("loadsweep", []string{"--load=4", "--ni=CNI16Q", "--topology=torus"}); err != nil {
		t.Errorf("loadsweep --load: %v", err)
	}
	if err := run("loadsweep", []string{"--load=4", "--arrival=bursty", "--zipf=0.5"}); err != nil {
		t.Errorf("loadsweep --load bursty: %v", err)
	}
	// --load is an open-loop offered rate; the closed loop self-limits.
	if err := run("loadsweep", []string{"--load=4", "--arrival=closed"}); err == nil {
		t.Error("loadsweep --load --arrival=closed should error")
	}
	// JSON/CSV export only applies to the full sweep, never silently
	// skipped for a single point.
	if err := run("loadsweep", []string{"--load=4", "--json=/tmp/x.json"}); err == nil {
		t.Error("loadsweep --load --json should error")
	}
}

// TestRunFaultSweepCell runs one narrowed faultsweep cell end to end
// through the CLI, including the uniform JSON export with the full
// ladder under Extra.
func TestRunFaultSweepCell(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy in -short mode")
	}
	jsonPath := filepath.Join(t.TempDir(), "f.json")
	err := run("faultsweep", []string{
		"--ni=CNI512Q", "--topology=flat", "--drop=0.001", "--seed=7", "--json=" + jsonPath})
	if err != nil {
		t.Fatalf("faultsweep cell: %v", err)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var d struct {
		cni.Data
		Extra []cni.FaultRow `json:"extra"`
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("exported JSON does not parse: %v", err)
	}
	if d.Name != "faultsweep" || len(d.Rows) != 1 || len(d.Extra) != 1 {
		t.Fatalf("exported Data = name %q, %d rows, %d extra", d.Name, len(d.Rows), len(d.Extra))
	}
	pt := d.Extra[0].Ladder[0]
	if pt.DropRate != 0.001 || pt.Delivered == 0 {
		t.Fatalf("ladder point = %+v", pt)
	}
	if pt.Drops == 0 {
		t.Error("drop rate 1e-3 over the fault window should inject at least one drop")
	}
}

// TestFlagTyposFailWithValidValues pins the CLI contract from this
// PR's satellite: a typo in --topology, --arrival, --ni, or --bus
// must fail with an error listing the valid values, never silently
// fall back to a default.
func TestFlagTyposFailWithValidValues(t *testing.T) {
	cases := []struct {
		cmd   string
		args  []string
		wants []string // substrings the error must carry
	}{
		{"latency", []string{"--topology=ring"}, []string{"ring", "flat", "torus"}},
		{"loadsweep", []string{"--topology=mesh"}, []string{"mesh", "flat", "torus"}},
		{"loadsweep", []string{"--arrival=burst"}, []string{"burst", "poisson", "bursty", "closed"}},
		{"loadsweep", []string{"--ni=CNI1024Q"}, []string{"CNI1024Q", "NI2w", "CNI512Q", "DMA"}},
		{"latency", []string{"--ni=bogus"}, []string{"bogus", "CNI16Qm"}},
		{"latency", []string{"--bus=warp"}, []string{"warp", "cache", "memory", "io"}},
		{"faultsweep", []string{"--topology=mesh"}, []string{"mesh", "flat", "torus"}},
		{"faultsweep", []string{"--ni=CNI1024Q"}, []string{"CNI1024Q", "NI2w", "CNI512Q", "DMA"}},
		// Out-of-range fault parameters must name the valid range, not
		// launch a sweep with a nonsense probability.
		{"faultsweep", []string{"--drop=1.5"}, []string{"1.5", "[0, 1)"}},
		{"faultsweep", []string{"--drop=-0.2"}, []string{"-0.2", "[0, 1)"}},
		{"faultsweep", []string{"--degrade=0.5"}, []string{"0.5", ">= 1"}},
		{"faultsweep", []string{"--drop=2", "--json=-", "--csv=-"}, []string{"stdout"}},
		// RPC/collective parameters must name the constraint too.
		{"rpc", []string{"--fanout=0"}, []string{">= 1", "0"}},
		{"rpc", []string{"--fanout=-3"}, []string{">= 1", "-3"}},
		{"rpc", []string{"--hedge=1.5"}, []string{"1.5", "[0, 1)"}},
		{"rpc", []string{"--hedge=-0.1"}, []string{"-0.1", "[0, 1)"}},
		{"rpc", []string{"--ni=CNI1024Q"}, []string{"CNI1024Q", "NI2w", "CNI512Q", "DMA"}},
		{"rpc", []string{"--topology=mesh"}, []string{"mesh", "flat", "torus"}},
		// The incast preset shapes a single point; without --fanout it
		// would silently be ignored.
		{"rpc", []string{"--incast-chunk=4096"}, []string{"--fanout"}},
		{"collective", []string{"--schedule=rign"}, []string{"rign", "ring-allreduce", "rd-allreduce", "alltoall", "broadcast"}},
		{"collective", []string{"--ni=CNI1024Q"}, []string{"CNI1024Q", "NI2w", "CNI512Q", "DMA"}},
		{"collective", []string{"--topology=mesh"}, []string{"mesh", "flat", "torus"}},
		{"collective", []string{"--bytes=-1"}, []string{"-1", ">= 1"}},
		// Recursive doubling pairs ranks by XOR; a non-power-of-two node
		// count must be rejected at flag time, naming the constraint,
		// instead of surfacing as a deep dcn error after machine build.
		{"collective", []string{"--schedule=rd-allreduce", "--nodes=12"}, []string{"12", "powers of two"}},
		{"collective", []string{"--schedule=rd-allreduce", "--nodes=1"}, []string{">= 2", "1"}},
		// Scale knobs shape a single run; the sweep stays pinned at the
		// paper's 16-node machine so its rows remain comparable.
		{"collective", []string{"--nodes=64"}, []string{"--nodes", "pinned", "16"}},
		{"loadsweep", []string{"--nodes=64"}, []string{"--nodes", "pinned", "16"}},
		{"loadsweep", []string{"--shards=4"}, []string{"--shards", "pinned", "16"}},
		// An out-of-range value must name the valid range instead of
		// reading as "flag absent" and starting a default run (the grid
		// is narrowed so such a run would at least end quickly).
		{"loadsweep", []string{"--load=-1", "--ni=CNI4", "--topology=flat"}, []string{"-1", "> 0"}},
		{"loadsweep", []string{"--load=NaN", "--ni=CNI4", "--topology=flat"}, []string{"NaN", "> 0"}},
		{"loadsweep", []string{"--zipf=-0.5", "--load=4"}, []string{"-0.5", "[0, 10]"}},
		{"faultsweep", []string{"--drop=-1", "--ni=CNI512Q", "--topology=flat"}, []string{"-1", "[0, 1)"}},
		{"rpc", []string{"--think=-5"}, []string{"-5", ">= 0 (0 = default)"}},
		// --think shapes a single point; the sweep would ignore it.
		{"rpc", []string{"--think=200000", "--clients=1000", "--ni=CNI512Q", "--topology=flat"}, []string{"--think", "--fanout"}},
	}
	for _, c := range cases {
		err := run(c.cmd, c.args)
		if err == nil {
			t.Errorf("%s %v: expected an error", c.cmd, c.args)
			continue
		}
		for _, want := range c.wants {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s %v: error %q does not mention %q", c.cmd, c.args, err, want)
			}
		}
	}
}

// TestUsageListsEveryExperiment pins the usage text to the experiment
// registry: every name cni.Experiment accepts (and every micro
// command run dispatches) must be discoverable from `cnisim
// <no-args>` output, so new experiments cannot ship CLI-invisible.
func TestUsageListsEveryExperiment(t *testing.T) {
	for _, name := range cni.ExperimentNames() {
		// Family commands appear as their base name (fig6-memory ->
		// fig6, table1 -> table1..table4 range line).
		base, _, _ := strings.Cut(name, "-")
		if strings.HasPrefix(base, "table") {
			base = "table1..table4"
		}
		if !strings.Contains(usageText, base) {
			t.Errorf("usage text does not mention experiment %q (looked for %q)", name, base)
		}
	}
	for _, cmd := range []string{"latency", "bandwidth", "incast", "exchange", "bench", "benchjson", "all", "list", "--topology", "loadsweep", "--arrival", "trace", "--trace", "--sample-every", "--progress"} {
		if !strings.Contains(usageText, cmd) {
			t.Errorf("usage text does not mention %q", cmd)
		}
	}
}

// TestListMatchesExperimentNames checks each listed experiment
// dispatches through run()'s switch (no registry entry the CLI cannot
// reach). It relies on run("bogus") erroring above; here every listed
// name must be a recognised command family.
func TestListMatchesExperimentNames(t *testing.T) {
	known := map[string]bool{
		"table1": true, "table2": true, "table3": true, "table4": true,
		"fig6": true, "fig7": true, "fig8": true,
		"occupancy": true, "ablation": true, "sweep": true, "dma": true,
		"congestion": true, "loadsweep": true, "faultsweep": true,
		"rpc": true, "collective": true,
	}
	for _, name := range cni.ExperimentNames() {
		base, _, _ := strings.Cut(name, "-")
		if !known[base] {
			t.Errorf("experiment %q has no CLI command family", name)
		}
	}
}

// TestRunRPCPoint runs one single-point rpc measurement end to end
// through the CLI with the uniform JSON export.
func TestRunRPCPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy in -short mode")
	}
	jsonPath := filepath.Join(t.TempDir(), "rpc.json")
	err := run("rpc", []string{
		"--fanout=2", "--clients=1000", "--think=200000", "--hedge=0.1",
		"--ni=CNI512Q", "--topology=flat", "--json=" + jsonPath})
	if err != nil {
		t.Fatalf("rpc point: %v", err)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var d cni.Data
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("exported JSON does not parse: %v", err)
	}
	if d.Name != "rpc-point" || len(d.Rows) != 1 {
		t.Fatalf("exported Data = name %q, %d rows", d.Name, len(d.Rows))
	}
	row := d.Rows[0]
	if row[0] != "CNI512Q" || row[1] != "flat" || row[2] != "2" {
		t.Fatalf("point row = %v", row)
	}
	if row[9] == "0" { // completed
		t.Error("point run completed no calls")
	}
	// The storage incast preset rides the same single-point path.
	if err := run("rpc", []string{"--fanout=4", "--clients=1000", "--think=200000", "--incast-chunk=4096"}); err != nil {
		t.Errorf("rpc incast preset: %v", err)
	}
}

// TestRunCollectiveSchedule runs one schedule end to end through the
// CLI: per-step rows in the export, completion in Extra.
func TestRunCollectiveSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy in -short mode")
	}
	jsonPath := filepath.Join(t.TempDir(), "coll.json")
	err := run("collective", []string{
		"--schedule=ring-allreduce", "--bytes=4096", "--ni=CNI512Q", "--json=" + jsonPath})
	if err != nil {
		t.Fatalf("collective run: %v", err)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var d struct {
		cni.Data
		Extra cni.CollectiveReport `json:"extra"`
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("exported JSON does not parse: %v", err)
	}
	// Ring allreduce on 16 nodes = 2(N-1) = 30 steps.
	if d.Name != "collective-run" || len(d.Rows) != 30 {
		t.Fatalf("exported Data = name %q, %d rows", d.Name, len(d.Rows))
	}
	if d.Extra.CompletionCycles == 0 || d.Extra.MovedBytes == 0 {
		t.Fatalf("report = %+v", d.Extra)
	}
	// A schedule typo must not reach the simulator.
	if err := run("collective", []string{"--schedule=ring"}); err == nil {
		t.Error("collective --schedule=ring (typo) should error")
	}
}

// TestProfileFlags pins the shared pprof flag handling: the flags are
// extracted from any position in any spelling, a missing path is a
// parse error (not a silent no-profile run), and a profiled run
// actually writes both files.
func TestProfileFlags(t *testing.T) {
	pf, rest, err := parseProfileFlags([]string{
		"--cpuprofile=cpu.out", "--json=-", "-memprofile", "mem.out", "--bus=io",
	})
	if err != nil {
		t.Fatalf("parseProfileFlags: %v", err)
	}
	if pf.cpu != "cpu.out" || pf.mem != "mem.out" {
		t.Fatalf("parsed %+v, want cpu.out/mem.out", pf)
	}
	if want := []string{"--json=-", "--bus=io"}; len(rest) != 2 || rest[0] != want[0] || rest[1] != want[1] {
		t.Fatalf("rest = %v, want %v", rest, want)
	}
	if _, _, err := parseProfileFlags([]string{"--cpuprofile"}); err == nil {
		t.Error("--cpuprofile without a path should error")
	}
	if _, _, err := parseProfileFlags([]string{"--memprofile"}); err == nil {
		t.Error("--memprofile without a path should error")
	}

	dir := t.TempDir()
	pf = profileFlags{cpu: filepath.Join(dir, "cpu.pprof"), mem: filepath.Join(dir, "mem.pprof")}
	stop, err := pf.start()
	if err != nil {
		t.Fatalf("start profiles: %v", err)
	}
	if err := run("list", nil); err != nil {
		t.Fatalf("profiled run: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatalf("stop profiles: %v", err)
	}
	for _, p := range []string{pf.cpu, pf.mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}
