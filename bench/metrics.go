package main

import (
	"math"
	"sort"
)

// metric is one registered benchmark metric. BENCHMARK.json lists the
// same names, units, directions and bounds; registry_test.go keeps the
// two in sync.
type metric struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// moves and on record, for a per-layer metric, which end-to-end
	// metric it should move and on which workloads (the prediction a
	// change to that layer is checked against).
	moves string
	on    []string
}

const (
	mSimCycles = "sim_cycles_per_s"
	mWall      = "wall_s"
	mSetup     = "setup_s"
	mRSS       = "peak_rss_mb"
)

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. Failed reps are reported as the result's failed count
// (the fail_frac line of the report), not as a metric: a metric must
// never read 0.
//
// The host-time bounds are the largest allowed, 25%: on the shared
// 2-CPU host the spread of run medians across ten seeds was 3-13% in
// quiet hours and up to 28% in busy ones (baseline.json). Peak RSS
// varies up to 7% on the 10 MB workloads.
var endToEnd = []metric{
	{name: mSimCycles, unit: "cycles/s", better: "higher", bound: 0.25},
	{name: mWall, unit: "s", better: "lower", bound: 0.25},
	{name: mSetup, unit: "s", better: "lower", bound: 0.25},
	{name: mRSS, unit: "MB", better: "lower", bound: 0.15},
}

const (
	wTorus = "torus-hotspot"
	wApps  = "apps-coherence"
	wRPC   = "rpc-lossy"
	wScale = "scale-1k"
)

// bucket is one host-time layer of the CPU-profile ledger.
type bucket struct {
	name  string
	moves string
	on    []string
}

// buckets lists the ledger's layers in report order. classify (layers.go)
// maps profile functions onto them.
var buckets = []bucket{
	{"runtime_sched", mSimCycles, []string{wApps, wTorus}},
	{"runtime_gc", mSetup, []string{wScale}},
	{"runtime_other", mSimCycles, []string{wTorus, wApps, wRPC, wScale}},
	{"sim_heap", mSimCycles, []string{wTorus}},
	{"sim_engine", mSimCycles, []string{wTorus, wApps, wRPC}},
	{"sim_shard", mSimCycles, []string{wScale}},
	{"machine", mSetup, []string{wScale}},
	{"proc", mSimCycles, []string{wApps}},
	{"cache", mSimCycles, []string{wApps}},
	{"bus", mSimCycles, []string{wApps}},
	{"nic", mSimCycles, []string{wApps}},
	{"msg", mSimCycles, []string{wRPC}},
	{"network", mSimCycles, []string{wTorus, wScale}},
	{"fault", mSimCycles, []string{wRPC}},
	{"workload", mSimCycles, []string{wTorus, wScale}},
	{"dcn", mSimCycles, []string{wRPC}},
	{"apps", mSimCycles, []string{wApps}},
	{"trace", mSimCycles, []string{wTorus, wApps, wRPC, wScale}},
	{"bench", mWall, []string{wTorus, wApps, wRPC, wScale}},
}

// perLayer are the metrics of the traced run: the host-time ledger,
// the simulator's own counters, host memory, and the micro probes.
var perLayer = func() []metric {
	var ms []metric
	for _, b := range buckets {
		ms = append(ms,
			metric{name: "layer." + b.name + ".self_pct", unit: "%", better: "lower", moves: b.moves, on: b.on},
			metric{name: "layer." + b.name + ".samples", unit: "count", better: "lower", moves: b.moves, on: b.on})
	}
	apps, rpc, both := []string{wApps}, []string{wRPC}, []string{wApps, wRPC}
	all, gen := []string{wTorus, wApps, wRPC, wScale}, []string{wTorus, wScale}
	return append(ms,
		metric{name: "sim.events", unit: "count", better: "lower", moves: mSimCycles, on: rpc},
		metric{name: "sim.events_per_kcycle", unit: "1/kcycle", better: "lower", moves: mSimCycles, on: rpc},
		metric{name: "cache.load_hit_ratio", unit: "ratio", better: "higher", moves: mSimCycles, on: both},
		metric{name: "cache.store_hit_ratio", unit: "ratio", better: "higher", moves: mSimCycles, on: both},
		metric{name: "bus.tx", unit: "count", better: "lower", moves: mSimCycles, on: both},
		metric{name: "bus.occupancy_frac", unit: "ratio", better: "lower", moves: mSimCycles, on: both},
		metric{name: "cpu.membar_stalls", unit: "count", better: "lower", moves: mSimCycles, on: both},
		metric{name: "cpu.sb_full", unit: "count", better: "lower", moves: mSimCycles, on: both},
		metric{name: "ni.poll_useful_ratio", unit: "ratio", better: "higher", moves: mSimCycles, on: apps},
		metric{name: "ni.recv_qfull", unit: "count", better: "lower", moves: mSimCycles, on: both},
		metric{name: "msg.send_block", unit: "count", better: "lower", moves: mSimCycles, on: rpc},
		metric{name: "msg.swbuffered", unit: "count", better: "lower", moves: mSimCycles, on: rpc},
		metric{name: "net.msgs", unit: "count", better: "lower", moves: mSimCycles, on: both},
		metric{name: "net.backpressure_ratio", unit: "ratio", better: "lower", moves: mSimCycles, on: both},
		metric{name: "net.window_stall", unit: "count", better: "lower", moves: mSimCycles, on: both},
		metric{name: "net.retransmit_ratio", unit: "ratio", better: "lower", moves: mSimCycles, on: rpc},
		metric{name: "net.acks", unit: "count", better: "lower", moves: mSimCycles, on: rpc},
		metric{name: "net.dup_suppressed", unit: "count", better: "lower", moves: mSimCycles, on: rpc},
		metric{name: "rpc.completed_ratio", unit: "ratio", better: "higher", moves: mSimCycles, on: rpc},
		metric{name: "net.delivery_p50_cycles", unit: "cycles", better: "lower", moves: mSimCycles, on: all},
		metric{name: "net.delivery_p999_cycles", unit: "cycles", better: "lower", moves: mSimCycles, on: all},
		metric{name: "wl.delivered_ratio", unit: "ratio", better: "higher", moves: mSimCycles, on: gen},
		metric{name: "host.alloc_mb", unit: "MB", better: "lower", moves: mRSS, on: []string{wScale}},
		metric{name: "host.gc_count", unit: "count", better: "lower", moves: mSetup, on: []string{wScale}},
		metric{name: "host.gc_pause_s", unit: "s", better: "lower", moves: mSetup, on: []string{wScale}},
		metric{name: "micro.sim_event.ns", unit: "ns", better: "lower", moves: mSimCycles, on: []string{wTorus}},
		metric{name: "micro.sim_sleep.ns", unit: "ns", better: "lower", moves: mSimCycles, on: apps},
		metric{name: "micro.cache_hit.ns", unit: "ns", better: "lower", moves: mSimCycles, on: apps},
		metric{name: "micro.cache_miss.ns", unit: "ns", better: "lower", moves: mSimCycles, on: apps},
		metric{name: "micro.rtt_flat.ns", unit: "ns", better: "lower", moves: mSimCycles, on: rpc},
		metric{name: "micro.rtt_flat.events", unit: "count", better: "lower", moves: mSimCycles, on: rpc},
		metric{name: "micro.rtt_torus.ns", unit: "ns", better: "lower", moves: mSimCycles, on: []string{wTorus}},
		metric{name: "micro.rtt_torus.events", unit: "count", better: "lower", moves: mSimCycles, on: []string{wTorus}},
		metric{name: "trace_overhead_pct", unit: "%", better: "lower", moves: mWall, on: all},
	)
}()

// summary is a sample's median and quartiles, by the same rule as
// Python's statistics.quantiles(values, n=4) (the "exclusive" method).
type summary struct {
	median, p25, p75 float64
	n                int
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{median: quartile(s, 2), p25: quartile(s, 1), p75: quartile(s, 3), n: len(s)}
}

// quartile returns the i-th quartile cut point of sorted s, clamping
// and interpolating exactly as Python's exclusive method does.
func quartile(s []float64, i int) float64 {
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN()
	case 1:
		return s[0]
	}
	m := ld + 1
	j := min(max(i*m/4, 1), ld-1)
	delta := float64(i*m - j*4)
	return (s[j-1]*(4-delta) + s[j]*delta) / 4
}
