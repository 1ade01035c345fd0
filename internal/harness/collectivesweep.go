package harness

import (
	"fmt"

	"repro/internal/dcn"
	"repro/internal/machine"
	"repro/internal/params"
)

// CollectiveBytes is the default per-node contribution (the vector
// each rank reduces / the volume each rank exchanges).
const CollectiveBytes = 64 * 1024

// CollectiveCell is one schedule's result within a row.
type CollectiveCell struct {
	Schedule         string  `json:"schedule"`
	Steps            int     `json:"steps"`
	CompletionUs     float64 `json:"completion_us"`
	MaxSkewCycles    uint64  `json:"max_skew_cycles"`
	MovedBytes       uint64  `json:"moved_bytes"`
	CompletionCycles uint64  `json:"completion_cycles"`
}

// CollectiveRow is one NI × topology cell: every schedule's
// completion time and straggler skew on that machine.
type CollectiveRow struct {
	NI        string           `json:"ni"`
	Topology  string           `json:"topology"`
	Bytes     int              `json:"bytes"`
	Schedules []CollectiveCell `json:"schedules"`
}

// CollectiveOptions selects what to sweep. Zero values mean the
// default 64KiB contribution, the taxonomy-corner NIs, and both
// fabrics.
type CollectiveOptions struct {
	Bytes int
	NIs   []params.NIKind
	Topos []params.Topology
	// Progress, when non-nil, is called once per measured schedule
	// with the cell's "NI/topology" label and the schedule name.
	// Cells fan out over worker goroutines, so the callback must be
	// goroutine-safe.
	Progress func(cell, detail string)
}

// collectiveShort abbreviates each schedule in the table headers.
var collectiveShort = map[dcn.Schedule]string{
	dcn.RingAllreduce: "ring", dcn.RDAllreduce: "rd", dcn.Alltoall: "a2a", dcn.Broadcast: "bcast",
}

// collectiveOne runs every schedule on one NI × topology machine
// configuration (a fresh machine per schedule — collectives measure a
// quiet fabric).
func collectiveOne(bytes int, cfg params.Config, note func(string)) CollectiveRow {
	row := CollectiveRow{NI: cfg.NI.String(), Topology: cfg.Topology.String(), Bytes: bytes}
	for _, sch := range dcn.Schedules() {
		rep, err := dcn.RunCollective(cfg, dcn.CollectiveSpec{Schedule: sch, Bytes: bytes})
		if err != nil {
			panic(err) // sweep specs are constructed, not user input
		}
		row.Schedules = append(row.Schedules, CollectiveCell{
			Schedule:         string(sch),
			Steps:            rep.Steps,
			CompletionUs:     machine.Microseconds(rep.CompletionCycles),
			CompletionCycles: uint64(rep.CompletionCycles),
			MaxSkewCycles:    uint64(rep.MaxSkew),
			MovedBytes:       rep.MovedBytes,
		})
		note(string(sch))
	}
	return row
}

// CollectiveSweep measures every collective schedule for every
// requested NI × topology. The Data carries completion and skew per
// schedule plus the full per-cell reports under Extra.
func CollectiveSweep(opt CollectiveOptions) (*Table, *Data, []CollectiveRow) {
	bytes := opt.Bytes
	if bytes <= 0 {
		bytes = CollectiveBytes
	}
	var cols []col[CollectiveRow]
	for i, sch := range dcn.Schedules() {
		done, skew := collectiveShort[sch]+" done", collectiveShort[sch]+" skew"
		if i == 0 {
			done, skew = done+" (us)", skew+" (cyc)"
		}
		cols = append(cols,
			col[CollectiveRow]{done, string(sch) + "_completion_us",
				func(r CollectiveRow) string { return f1(r.Schedules[i].CompletionUs) }},
			col[CollectiveRow]{skew, string(sch) + "_max_skew_cycles",
				func(r CollectiveRow) string { return fmt.Sprintf("%d", r.Schedules[i].MaxSkewCycles) }})
	}
	return gridSweep[CollectiveRow]{
		name:  "collective",
		title: fmt.Sprintf("Collective schedules: %d KiB per node (%d nodes, memory bus)", bytes/1024, SweepNodes),
		note: "Completion is start to the last node's finish; skew is the largest per-step\n" +
			"spread between the fastest and slowest participant (the schedule's straggler\n" +
			"exposure). ring moves 2(n-1) chunks of 1/n, rd-allreduce log2(n) full vectors\n" +
			"(power-of-two only), alltoall n-1 pairwise chunks, broadcast a binomial tree.",
		nis: opt.NIs, defaultNIs: cornerNIs, topos: opt.Topos, progress: opt.Progress,
		measure: func(cfg params.Config, note func(string)) CollectiveRow { return collectiveOne(bytes, cfg, note) },
		cols:    cols,
	}.run()
}
