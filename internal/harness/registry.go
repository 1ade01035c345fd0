package harness

import (
	"encoding/csv"
	"encoding/json"
	"strings"

	"repro/internal/params"
)

// RunOpts parameterises one registry experiment run.
type RunOpts struct {
	// Apps narrows the macrobenchmark sweeps (fig8, occupancy) to a
	// benchmark subset; nil runs all five. Experiments without a
	// benchmark dimension ignore it.
	Apps []string
}

// Data is an experiment's machine-readable result: a named grid that
// marshals uniformly to JSON or CSV across every experiment, plus an
// optional experiment-specific structured payload (for the load
// sweep, the full per-NI ladders).
type Data struct {
	Name   string     `json:"name"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Extra  any        `json:"extra,omitempty"`
}

// tableData derives the uniform machine-readable grid from a rendered
// table; Registry stamps the experiment name afterwards, so the name
// literal lives in exactly one place per entry.
func tableData(t *Table) *Data {
	return &Data{Title: t.Title, Header: t.Header, Rows: t.Rows}
}

// JSON marshals the data (indented, trailing newline).
func (d *Data) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// CSV renders the header and rows as RFC-4180 CSV (cells containing
// commas — e.g. Table 3's input descriptions — are quoted).
func (d *Data) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	_ = w.Write(d.Header)
	_ = w.WriteAll(d.Rows)
	return b.String()
}

// Experiment is one registered experiment: a stable name, a
// human-readable title, classification tags, and a runner that
// renders the paper-style table plus the machine-readable Data.
type Experiment struct {
	// Name is the stable identifier (CLI command / Experiment shim).
	Name string
	// Title is the rendered table's headline.
	Title string
	// Tags classify the experiment: "paper" (reproduces a paper
	// artefact) or "extension", plus a kind ("table", "latency",
	// "bandwidth", "speedup", "occupancy", "ablation", "congestion",
	// "workload").
	Tags []string
	// Run executes the experiment.
	Run func(opt RunOpts) (*Table, *Data)
}

// simple wraps a no-option table generator into a registry runner.
func simple(fn func() *Table) func(RunOpts) (*Table, *Data) {
	return func(RunOpts) (*Table, *Data) {
		t := fn()
		return t, tableData(t)
	}
}

// withApps wraps a benchmark-narrowable generator.
func withApps(fn func(appNames []string) *Table) func(RunOpts) (*Table, *Data) {
	return func(opt RunOpts) (*Table, *Data) {
		t := fn(opt.Apps)
		return t, tableData(t)
	}
}

// defaultSweep wraps a grid sweep into a registry runner over its
// zero-value (default) options.
func defaultSweep[O, R any](sweep func(O) (*Table, *Data, []R)) func(RunOpts) (*Table, *Data) {
	return func(RunOpts) (*Table, *Data) {
		var opt O
		t, d, _ := sweep(opt)
		return t, d
	}
}

// Registry returns the experiment registry in presentation order —
// the paper's tables, then its figures, then this reproduction's
// extensions. The order is the public ExperimentNames order and the
// CLI `list` order; tests pin that every entry renders a well-formed
// table and round-trips its Data.
func Registry() []Experiment {
	paper := func(kind string) []string { return []string{"paper", kind} }
	ext := func(kind string) []string { return []string{"extension", kind} }
	reg := []Experiment{
		{Name: "table1", Title: "NI taxonomy summary (paper Table 1)",
			Tags: paper("table"), Run: simple(Table1)},
		{Name: "table2", Title: "Bus occupancy timing model (paper Table 2)",
			Tags: paper("table"), Run: simple(Table2)},
		{Name: "table3", Title: "Macrobenchmark summary (paper Table 3)",
			Tags: paper("table"), Run: simple(Table3)},
		{Name: "table4", Title: "NI comparison (paper Table 4)",
			Tags: paper("table"), Run: simple(Table4)},
		{Name: "fig6-memory", Title: "Round-trip latency, memory bus (paper Fig 6a)",
			Tags: paper("latency"), Run: simple(func() *Table { return Fig6(params.MemoryBus) })},
		{Name: "fig6-io", Title: "Round-trip latency, I/O bus (paper Fig 6b)",
			Tags: paper("latency"), Run: simple(func() *Table { return Fig6(params.IOBus) })},
		{Name: "fig6-alt", Title: "Round-trip latency, alternate buses (paper Fig 6c)",
			Tags: paper("latency"), Run: simple(Fig6Alt)},
		{Name: "fig7-memory", Title: "Relative bandwidth, memory bus (paper Fig 7a)",
			Tags: paper("bandwidth"), Run: simple(func() *Table { return Fig7(params.MemoryBus) })},
		{Name: "fig7-io", Title: "Relative bandwidth, I/O bus (paper Fig 7b)",
			Tags: paper("bandwidth"), Run: simple(func() *Table { return Fig7(params.IOBus) })},
		{Name: "fig7-alt", Title: "Relative bandwidth, alternate buses (paper Fig 7c)",
			Tags: paper("bandwidth"), Run: simple(Fig7Alt)},
		{Name: "fig8-memory", Title: "Macrobenchmark speedups, memory bus (paper Fig 8a)",
			Tags: paper("speedup"), Run: withApps(func(a []string) *Table { return Fig8(params.MemoryBus, a) })},
		{Name: "fig8-io", Title: "Macrobenchmark speedups, I/O bus (paper Fig 8b)",
			Tags: paper("speedup"), Run: withApps(func(a []string) *Table { return Fig8(params.IOBus, a) })},
		{Name: "fig8-alt", Title: "Macrobenchmark speedups, alternate buses (paper Fig 8c)",
			Tags: paper("speedup"), Run: withApps(Fig8Alt)},
		{Name: "occupancy", Title: "Memory-bus occupancy relative to NI2w (paper §5.2)",
			Tags: paper("occupancy"), Run: withApps(Occupancy)},
		{Name: "ablation", Title: "CQ optimisation ablation",
			Tags: ext("ablation"), Run: simple(AblationCQ)},
		{Name: "sweep", Title: "Exposed queue-size sweep",
			Tags: ext("ablation"), Run: simple(SweepQueueSize)},
		{Name: "dma", Title: "CNI vs user-level DMA",
			Tags: ext("bandwidth"), Run: simple(DMAComparison)},
		{Name: "congestion", Title: "Probe RTT and victim bandwidth under load, flat vs torus",
			Tags: ext("congestion"), Run: simple(Congestion)},
		{Name: "loadsweep", Title: "Offered-load sweep to saturation with tail latency",
			Tags: ext("workload"), Run: defaultSweep(LoadSweep)},
		{Name: "faultsweep", Title: "Goodput and tail latency vs injected drop rate, flat vs torus",
			Tags: ext("faults"), Run: defaultSweep(FaultSweep)},
		{Name: "rpc", Title: "RPC fan-out tail latency at a million clients, flat vs torus",
			Tags: ext("dcn"), Run: defaultSweep(RPCSweep)},
		{Name: "collective", Title: "Collective schedule completion and per-step skew, flat vs torus",
			Tags: ext("dcn"), Run: defaultSweep(CollectiveSweep)},
	}
	// Stamp every result's Data.Name from the registry entry, so the
	// name literal cannot drift between the entry and its Data.
	for i := range reg {
		name, inner := reg[i].Name, reg[i].Run
		reg[i].Run = func(opt RunOpts) (*Table, *Data) {
			t, d := inner(opt)
			d.Name = name
			return t, d
		}
	}
	return reg
}

// ByName finds a registered experiment.
func ByName(name string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}
