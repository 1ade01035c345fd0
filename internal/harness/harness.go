// Package harness regenerates every table and figure in the paper's
// evaluation (§5): Figures 6 (round-trip latency), 7 (bandwidth), and
// 8 (macrobenchmark speedups), Tables 1-4, the §5.2 bus-occupancy
// result, plus the ablation sweeps DESIGN.md adds (CQ optimisations
// and queue-size scaling).
//
// Each experiment returns a Table whose String() renders the same
// rows/series the paper reports; cmd/cnisim and bench_test.go are thin
// wrappers over this package.
package harness

import (
	"fmt"
	"strings"

	"repro/internal/apps"
	"repro/internal/machine"
	"repro/internal/params"
)

// Table is one experiment's output: a titled grid.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// Cell returns the numeric-cell string at (row, col) for tests.
func (t *Table) Cell(row, col int) string { return t.Rows[row][col] }

// Fig6Sizes are the paper's Figure 6 message sizes (bytes).
var Fig6Sizes = []int{8, 16, 32, 64, 128, 256}

// Fig7Sizes are the paper's Figure 7 message sizes (bytes).
var Fig7Sizes = []int{8, 64, 512, 4096}

// Fig8NIsMemory lists Figure 8a's NIs.
var Fig8NIsMemory = []params.NIKind{params.NI2w, params.CNI4, params.CNI16Q, params.CNI512Q, params.CNI16Qm}

// Fig8NIsIO lists Figure 8b's NIs (no CNI16Qm on the I/O bus, §2.3).
var Fig8NIsIO = []params.NIKind{params.NI2w, params.CNI4, params.CNI16Q, params.CNI512Q}

// rttRounds is the steady-state round count per latency point.
const rttRounds = 4

// fig6Config builds a microbenchmark config.
func fig6Config(ni params.NIKind, bus params.BusKind) params.Config {
	return params.Config{Nodes: 2, NI: ni, Bus: bus}
}

// figNIs lists a figure's NIs on bus: Figure 8a's on the memory bus,
// 8b's (no CNI16Qm, §2.3) on the I/O bus.
func figNIs(bus params.BusKind) []params.NIKind {
	if bus == params.IOBus {
		return Fig8NIsIO
	}
	return Fig8NIsMemory
}

// niConfigs builds one nodes-node config per NI on bus.
func niConfigs(nis []params.NIKind, bus params.BusKind, nodes int) []params.Config {
	cfgs := make([]params.Config, 0, len(nis))
	for _, ni := range nis {
		cfgs = append(cfgs, params.Config{Nodes: nodes, NI: ni, Bus: bus})
	}
	return cfgs
}

// altHeads and altConfigs are the alternate-bus figures' (6c, 7c, 8c)
// columns: NI2w on the cache bus vs CNI16Qm on the memory bus vs
// CNI512Q on the I/O bus.
var altHeads = []string{"NI2w@cache", "CNI16Qm@memory", "CNI512Q@io"}

func altConfigs() []params.Config {
	return []params.Config{
		{Nodes: 2, NI: params.NI2w, Bus: params.CacheBus},
		{Nodes: 2, NI: params.CNI16Qm, Bus: params.MemoryBus},
		{Nodes: 2, NI: params.CNI512Q, Bus: params.IOBus},
	}
}

// sizeTable measures a message sizes × columns figure: a row per size,
// cell(c, size) for each of header's columns, all cells in parallel.
func sizeTable(title string, header []string, sizes []int, cell func(c, size int) string) *Table {
	t := &Table{Title: title, Header: append([]string{"bytes"}, header...)}
	cells := grid(len(sizes), len(header), func(r, c int) string { return cell(c, sizes[r]) })
	for r, size := range sizes {
		t.Rows = append(t.Rows, append([]string{fmt.Sprintf("%d", size)}, cells[r]...))
	}
	return t
}

// rttCell formats RoundTrip's steady-state latency in microseconds.
func rttCell(cfg params.Config, size int) string {
	return fmt.Sprintf("%.2f", machine.Microseconds(apps.RoundTrip(cfg, size, rttRounds)))
}

// Fig6 reproduces Figure 6a/6b: process-to-process round-trip latency
// (microseconds) for each NI at each message size, on the given bus.
func Fig6(bus params.BusKind) *Table {
	nis := figNIs(bus)
	return fig6(fmt.Sprintf("Figure 6 (%s bus): round-trip message latency, microseconds", bus),
		niNames(nis), niConfigs(nis, bus, 2))
}

// Fig6Alt reproduces Figure 6c: NI2w on the cache bus vs CNI16Qm on
// the memory bus vs CNI512Q on the I/O bus.
func Fig6Alt() *Table {
	return fig6("Figure 6c (alternate buses): round-trip latency, microseconds", altHeads, altConfigs())
}

// fig6 measures round-trip latency per message size, a column per
// config.
func fig6(title string, header []string, cfgs []params.Config) *Table {
	return sizeTable(title, header, Fig6Sizes, func(c, size int) string { return rttCell(cfgs[c], size) })
}

// bwMessages picks a message count that exercises steady state without
// exploding event counts at tiny sizes.
func bwMessages(size int) int {
	n := 96 * 1024 / size
	if n < 24 {
		n = 24
	}
	if n > 1200 {
		n = 1200
	}
	return n
}

// bandwidth runs Bandwidth at size with bwMessages' message count.
func bandwidth(cfg params.Config, size int) float64 {
	return apps.Bandwidth(cfg, size, bwMessages(size))
}

// Fig7 reproduces Figure 7a/7b: bandwidth relative to the local
// cachable-queue bound, per NI per message size. On the memory bus the
// CNI16Qm-with-snarfing series of Fig 7a is included.
func Fig7(bus params.BusKind) *Table {
	nis := figNIs(bus)
	header, cfgs := niNames(nis), niConfigs(nis, bus, 2)
	if bus == params.MemoryBus {
		header = append(header, "CNI16Qm+snarf")
		cfg := fig6Config(params.CNI16Qm, bus)
		cfg.Snarfing = true
		cfgs = append(cfgs, cfg)
	}
	return fig7(fmt.Sprintf("Figure 7 (%s bus)", bus), header, cfgs)
}

// Fig7Alt reproduces Figure 7c: alternate buses, relative bandwidth.
func Fig7Alt() *Table {
	return fig7("Figure 7c (alternate buses)", altHeads, altConfigs())
}

// fig7 measures bandwidth relative to the local-queue bound per
// message size, a column per config.
func fig7(figure string, header []string, cfgs []params.Config) *Table {
	bound := apps.LocalQueueBandwidth()
	title := fmt.Sprintf("%s: bandwidth relative to local-queue bound (%.0f MB/s)", figure, bound)
	return sizeTable(title, header, Fig7Sizes, func(c, size int) string {
		return fmt.Sprintf("%.2f", bandwidth(cfgs[c], size)/bound)
	})
}

func niNames(nis []params.NIKind) []string {
	out := make([]string, len(nis))
	for i, ni := range nis {
		out[i] = ni.String()
	}
	return out
}

// Fig8 reproduces Figure 8a/8b: per-macrobenchmark speedup over NI2w
// on the memory bus. appNames limits the run (nil = all five).
func Fig8(bus params.BusKind, appNames []string) *Table {
	nis := figNIs(bus)
	t := &Table{
		Title:  fmt.Sprintf("Figure 8 (%s bus): speedup over NI2w on the memory bus", bus),
		Header: append([]string{"benchmark"}, niNames(nis)...),
	}
	t.Rows, _ = relRows(selectApps(appNames), niConfigs(nis, bus, 16), apps.Result.SpeedupOver)
	return t
}

// Fig8Alt reproduces Figure 8c: NI2w@cache vs CNI16Qm@memory vs
// CNI512Q@io, speedups over NI2w@memory.
func Fig8Alt(appNames []string) *Table {
	t := &Table{
		Title:  "Figure 8c (alternate buses): speedup over NI2w on the memory bus",
		Header: append([]string{"benchmark"}, altHeads...),
	}
	cfgs := altConfigs()
	for i := range cfgs {
		cfgs[i].Nodes = 16
	}
	t.Rows, _ = relRows(selectApps(appNames), cfgs, apps.Result.SpeedupOver)
	return t
}

// relRows runs every (benchmark, config) cell plus the per-app
// NI2w@memory baseline concurrently, then renders a row per app, in
// the apps' order, of rel(result, baseline) for each config. It also
// returns each config's mean rel over the apps. Each cell constructs
// a private App instance so no state is shared between host workers.
func relRows(sel []apps.App, cfgs []params.Config, rel func(r, base apps.Result) float64) ([][]string, []float64) {
	base := params.Config{Nodes: 16, NI: params.NI2w, Bus: params.MemoryBus}
	runs := append([]params.Config{base}, cfgs...)
	results := grid(len(sel), len(runs), func(r, c int) apps.Result {
		return freshApp(sel[r].Name()).Run(runs[c])
	})
	rows := make([][]string, 0, len(sel))
	means := make([]float64, len(cfgs))
	for r, app := range sel {
		row := []string{app.Name()}
		for c := range cfgs {
			v := rel(results[r][c+1], results[r][0])
			means[c] += v
			row = append(row, fmt.Sprintf("%.2f", v))
		}
		rows = append(rows, row)
	}
	for c := range means {
		means[c] /= float64(len(sel))
	}
	return rows, means
}

// freshApp returns a private instance of the named benchmark.
func freshApp(name string) apps.App {
	a, err := apps.ByName(name)
	if err != nil {
		panic(err)
	}
	return a
}

func selectApps(names []string) []apps.App {
	if len(names) == 0 {
		return apps.All()
	}
	var out []apps.App
	for _, n := range names {
		a, err := apps.ByName(n)
		if err != nil {
			panic(err)
		}
		out = append(out, a)
	}
	return out
}

// Occupancy reproduces the §5.2 result: memory-bus occupancy of each
// CNI relative to NI2w, averaged over the macrobenchmarks ("CQ-based
// CNIs ... reduce the memory bus occupancy by as much as 66% ...
// CNI4 ... by only 23%").
func Occupancy(appNames []string) *Table {
	t := &Table{
		Title:  "Section 5.2: memory-bus occupancy relative to NI2w (memory bus), lower is better",
		Header: append([]string{"benchmark"}, niNames(Fig8NIsMemory)...),
	}
	rows, means := relRows(selectApps(appNames), niConfigs(Fig8NIsMemory, params.MemoryBus, 16),
		func(r, base apps.Result) float64 {
			return float64(r.MemBusOccupancy) / float64(base.MemBusOccupancy)
		})
	avg := []string{"average"}
	for _, m := range means {
		avg = append(avg, fmt.Sprintf("%.2f", m))
	}
	t.Rows = append(rows, avg)
	return t
}

// AblationCQ measures each CQ optimisation's contribution (A1 in
// DESIGN.md): round-trip latency and bandwidth for CNI512Q with each
// optimisation disabled in turn.
func AblationCQ() *Table {
	t := &Table{
		Title: "Ablation: CQ optimisations (32-block CQ, memory bus)",
		Note: "Measured in steady state on a wrapped (reused) queue — valid bits and\n" +
			"sense reverse pay off once entries are revisited (§2.2). The bus column\n" +
			"is memory-bus cycles consumed per 64-byte round trip.",
		Header: []string{"variant", "RTT 64B (us)", "bus cyc/RTT", "BW 1KB (MB/s)"},
	}
	variants := []struct {
		name string
		mod  func(*params.Config)
	}{
		{"all optimisations", func(c *params.Config) {}},
		{"no lazy pointers", func(c *params.Config) { c.NoLazyPointers = true }},
		{"no valid bits (poll tail)", func(c *params.Config) { c.NoValidBits = true }},
		{"no sense reverse (explicit clear)", func(c *params.Config) { c.NoSenseReverse = true }},
		{"update-protocol extension", func(c *params.Config) { c.UpdateProtocol = true }},
	}
	t.Rows = runCells(len(variants), func(i int) []string {
		v := variants[i]
		cfg := fig6Config(params.CNI512Q, params.MemoryBus)
		// A small queue wraps within the measurement, reaching the
		// steady state the optimisations are designed for.
		cfg.QueueBlocksOverride = 32
		v.mod(&cfg)
		rtt, busCyc := apps.RoundTripDetail(cfg, 64, 24)
		bw := bandwidth(cfg, 1024)
		return []string{
			v.name,
			fmt.Sprintf("%.2f", machine.Microseconds(rtt)),
			fmt.Sprintf("%d", busCyc),
			fmt.Sprintf("%.0f", bw),
		}
	})
	return t
}

// DMAComparison is the comparison the paper names as its open
// weakness (§1): program-controlled CNIs vs a user-level-DMA NI.
// It reports round-trip latency and bandwidth across message sizes
// for NI2w, the best CNI, and the DMA extension; the expected shape
// is the one the paper's discussion predicts — DMA's constant
// descriptor cost wins on processor overhead for bulk transfers but
// its interrupt notification and DRAM delivery lose on fine-grain
// latency.
func DMAComparison() *Table {
	nis := []params.NIKind{params.NI2w, params.CNI512Q, params.DMA}
	t := sizeTable("Extension: CNI vs user-level DMA (memory bus)",
		[]string{"NI2w RTT", "CNI512Q RTT", "DMA RTT", "NI2w BW", "CNI512Q BW", "DMA BW"},
		[]int{16, 256, 1024, 4096}, func(c, size int) string {
			if c < len(nis) {
				return rttCell(fig6Config(nis[c], params.MemoryBus), size)
			}
			return fmt.Sprintf("%.0f", bandwidth(fig6Config(nis[c-len(nis)], params.MemoryBus), size))
		})
	t.Note = "RTT in microseconds; bandwidth in MB/s. The DMA NI posts 4-word\n" +
		"descriptors, delivers to DRAM, and notifies via a 1000-cycle interrupt."
	return t
}

// SweepQueueSize measures bandwidth and burst behaviour as the CQ size
// varies (A2 in DESIGN.md), and NI2w FIFO depth alongside.
func SweepQueueSize() *Table {
	t := &Table{
		Title:  "Ablation: exposed queue size (device-homed CQ, memory bus)",
		Header: []string{"queue blocks", "RTT 64B (us)", "BW 1KB (MB/s)"},
	}
	sizes := []int{8, 16, 64, 128, 512}
	t.Rows = runCells(len(sizes), func(i int) []string {
		cfg := fig6Config(params.CNI512Q, params.MemoryBus)
		cfg.QueueBlocksOverride = sizes[i]
		return []string{fmt.Sprintf("%d", sizes[i]), rttCell(cfg, 64), fmt.Sprintf("%.0f", bandwidth(cfg, 1024))}
	})
	return t
}
