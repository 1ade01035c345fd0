package harness

import (
	"fmt"

	"repro/internal/params"
)

// Every extension sweep (loadsweep, faultsweep, rpc, collective) is the
// paper's NI × bus grid with a fabric axis: one independent 16-node
// memory-bus machine per NI × topology cell, measured by a per-sweep
// procedure and rendered as one row. gridSweep owns everything the
// sweeps share — the default axes, the parallel fan-out, progress
// reporting, and rendering the Table and the Data from one column
// list — so a sweep is its cell measurement plus its columns.

// Default NI axes: the five paper NIs plus the DMA comparator, and the
// taxonomy corners (the CM-5-like baseline, the small and large
// coherent queue designs, and DMA) for the datacenter sweeps, where the
// full grid triples the runtime without changing the story.
var (
	paperNIsAndDMA = append(append([]params.NIKind{}, Fig8NIsMemory...), params.DMA)
	cornerNIs      = []params.NIKind{params.NI2w, params.CNI4, params.CNI512Q, params.DMA}
)

// col declares one result column: the human table header, the
// snake_case Data key (the CSV schema), and the cell's value.
type col[R any] struct {
	head, key string
	val       func(R) string
}

// f1 renders a column value with one decimal.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// gridSweep declares one NI × topology sweep with row type R.
type gridSweep[R any] struct {
	// name is the Data name (the registry stamps the same one; cnisim's
	// parameterised sweeps export without going through it).
	name, title, note string
	// nis and topos select the grid; empty takes defaultNIs over both
	// fabrics.
	nis        []params.NIKind
	defaultNIs []params.NIKind
	topos      []params.Topology
	// progress, when non-nil, receives every measured point's cell
	// label and detail from the worker goroutines.
	progress func(cell, detail string)
	// measure runs one cell on its base machine configuration, calling
	// note once per measured point.
	measure func(cfg params.Config, note func(detail string)) R
	// cols follow the leading NI and topology columns.
	cols []col[R]
}

// run measures every cell in parallel and renders the table, the Data
// (with the rows under Extra), and the rows. Output is byte-identical
// to a serial run.
func (s gridSweep[R]) run() (*Table, *Data, []R) {
	nis := s.nis
	if len(nis) == 0 {
		nis = s.defaultNIs
	}
	topos := s.topos
	if len(topos) == 0 {
		topos = []params.Topology{params.TopoFlat, params.TopoTorus}
	}
	cell := func(i int) (params.NIKind, params.Topology) { return nis[i/len(topos)], topos[i%len(topos)] }
	rows := runCells(len(nis)*len(topos), func(i int) R {
		ni, topo := cell(i)
		label := ni.String() + "/" + topo.String()
		cfg := params.Config{Nodes: SweepNodes, NI: ni, Bus: params.MemoryBus, Topology: topo}
		return s.measure(cfg, func(detail string) {
			if s.progress != nil {
				s.progress(label, detail)
			}
		})
	})
	t := &Table{Title: s.title, Note: s.note, Header: []string{"NI", "topo"}}
	d := &Data{Name: s.name, Title: s.title, Header: []string{"ni", "topology"}, Extra: rows}
	for _, c := range s.cols {
		t.Header = append(t.Header, c.head)
		d.Header = append(d.Header, c.key)
	}
	for i, r := range rows {
		ni, topo := cell(i)
		cells := []string{ni.String(), topo.String()}
		for _, c := range s.cols {
			cells = append(cells, c.val(r))
		}
		d.Rows = append(d.Rows, cells)
		shown := append([]string(nil), cells...)
		if i%len(topos) != 0 {
			shown[0] = "" // the NI labels its first fabric's row only
		}
		t.Rows = append(t.Rows, shown)
	}
	return t, d, rows
}
