// Command bench is the simulator's benchmark. It runs one workload (or
// all of them, one process each) for a fixed host-time budget, checks
// every repetition's simulated outputs against reference digests, and
// prints each metric by name with its unit. With --trace it adds one
// CPU-profiled repetition and micro probes, and reports host time
// layer by layer.
//
//	bash bench/run.sh --workload torus-hotspot --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	// defaultSeconds is BENCHMARK.json's run_seconds.
	defaultSeconds = 20
	// minReps keeps quartiles meaningful on the slowest workloads.
	minReps = 3
	// spanDir receives the traced run's span files, relative to the
	// repository root the benchmark runs from.
	spanDir = "bench/out"
)

//go:embed reference.json
var referenceJSON []byte

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	o, err := parseArgs(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if o.workload == "all" {
		return runAll(o, stdout)
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	runtime.GOMAXPROCS(min(w.procs, runtime.NumCPU()))
	var refs map[string]map[string]string
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		fmt.Fprintln(os.Stderr, "bench: reference.json:", err)
		return 2
	}
	res, err := measure(w, o, refs[w.name][fmt.Sprint(o.seed)])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if res.failed > 0 {
		return 1
	}
	return 0
}

func parseArgs(args []string) (options, error) {
	o := options{}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run, or all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "host seconds of untraced repetitions")
	fs.BoolVar(&o.trace, "trace", false, "add a CPU-profiled repetition and report per-layer metrics")
	if err := fs.Parse(joinTraceValue(args)); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	case o.workload == "":
		return o, errors.New("--workload is required")
	case !(o.seconds > 0):
		return o, fmt.Errorf("--seconds must be positive, have %v", o.seconds)
	}
	return o, nil
}

// joinTraceValue rewrites "--trace 0" and "--trace 1" as --trace=false
// and --trace=true: a boolean flag takes its value only after "=".
func joinTraceValue(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "--trace" || a == "-trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, a+"="+map[string]string{"0": "false", "1": "true"}[args[i+1]])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

// repStat is one untraced repetition.
type repStat struct {
	wall, setup, run, cyclesPerS float64
	digest                       string
}

// result is one workload's measured run.
type result struct {
	o         options
	procs     int
	reference string
	reps      []repStat
	outputs   []output
	// peakRSS is the process's peak resident set after the first rep:
	// what one simulation costs a fresh process. The high-water mark
	// only grows, so later reps would add the earlier reps' leftovers.
	peakRSS   float64
	attempted int
	failed    int
	failures  []string
	// trace mode only
	ledger ledger
	layer  map[string]float64
}

// measure starts untraced reps until o.seconds have passed (and at
// least minReps), then, with o.trace, runs one traced rep and the micro
// probes. Every rep counts; none is discarded as warm-up.
func measure(w workloadSpec, o options, reference string) (*result, error) {
	res := &result{o: o, procs: runtime.GOMAXPROCS(0), reference: reference}
	tr := newTracer()
	start := time.Now()
	for rep := 1; ; rep++ {
		freeMemory()
		r, dg, wall := oneRep(w, o.seed, rep, false, tr)
		res.check(rep, dg, r)
		res.reps = append(res.reps, repStat{wall: wall, setup: r.setupS, run: r.runS,
			cyclesPerS: float64(r.simCycles) / r.runS, digest: dg})
		if rep == 1 {
			res.outputs = r.outputs
			rss, err := maxRSSMB()
			if err != nil {
				return nil, err
			}
			res.peakRSS = rss
		}
		if rep >= minReps && time.Since(start) >= seconds(o.seconds) {
			break
		}
	}
	if o.trace {
		if err := res.traced(w, tr); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// oneRep runs rep number rep and records its spans. wall covers the
// rep from machine construction to the digest of its outputs.
func oneRep(w workloadSpec, seed uint64, rep int, layer bool, tr *tracer) (r repResult, dg string, wall float64) {
	id := tr.begin("rep", 0, rep)
	t0 := time.Now()
	r = w.rep(seed, false, layer)
	t1 := time.Now()
	dg = digest(r.outputs)
	wall = time.Since(t0).Seconds()
	// The phases happen inside one call into the simulator, so their
	// spans are laid end to end from the rep's start.
	tr.add("setup", id, rep, t0, seconds(r.setupS))
	tr.add("run", id, rep, t0.Add(seconds(r.setupS)), seconds(r.runS))
	tr.add("digest", id, rep, t1, time.Since(t1))
	tr.end(id)
	return r, dg, wall
}

// wallMedian returns the untraced reps' median wall time.
func (res *result) wallMedian() float64 {
	walls := make([]float64, len(res.reps))
	for i, s := range res.reps {
		walls[i] = s.wall
	}
	return summarize(walls).median
}

// check counts rep as attempted and as failed when its simulated
// outputs are wrong: a sanity error, a digest that differs from the
// seed's reference, or one that differs from the first rep's.
func (res *result) check(rep int, dg string, r repResult) {
	res.attempted++
	var why string
	switch {
	case r.err != nil:
		why = r.err.Error()
	case res.reference != "" && dg != res.reference:
		why = "digest " + dg + " differs from reference " + res.reference
	case len(res.reps) > 0 && dg != res.reps[0].digest:
		why = "digest " + dg + " differs from rep 1's " + res.reps[0].digest
	default:
		return
	}
	res.failed++
	res.failures = append(res.failures, fmt.Sprintf("rep %d: %s", rep, why))
}

// traced runs one rep under the CPU profiler, then the micro probes,
// and fills the per-layer metrics.
func (res *result) traced(w workloadSpec, tr *tracer) error {
	rep := len(res.reps) + 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before) // the forced collection before the rep counts too
	freeMemory()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	r, dg, wall := oneRep(w, res.o.seed, rep, true, tr)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)
	res.check(rep, dg, r)

	l, err := buildLedger(prof.Bytes())
	if err != nil {
		return err
	}
	res.ledger = l
	m := map[string]float64{}
	for _, b := range buckets {
		m["layer."+b.name+".self_pct"] = l.pct(b.name)
		m["layer."+b.name+".samples"] = float64(l.samples[b.name])
	}
	for k, v := range r.layer {
		m[k] = v
	}
	m["host.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	m["host.gc_count"] = float64(after.NumGC - before.NumGC)
	m["host.gc_pause_s"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9
	med := res.wallMedian()
	m["trace_overhead_pct"] = 100 * (wall - med) / med

	mid := tr.begin("micro", 0, 0)
	for _, p := range probes {
		pr := runProbe(p, tr, mid)
		m["micro."+p.name+".ns"] = pr.nsPerOp
		if p.events {
			m["micro."+p.name+".events"] = pr.eventsPerOp
		}
	}
	tr.end(mid)
	res.layer = m

	f := spanFile{Workload: w.name, Seed: res.o.seed, GOMAXPROCS: res.procs, GoVersion: runtime.Version(),
		TracedRep: rep, Spans: tr.spans, Ledger: l.samples, Metrics: m}
	return f.write(spanDir)
}

// freeMemory returns the previous rep's garbage to the OS, so each rep
// starts from the same heap and peak RSS reflects the rep itself.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// maxRSSMB returns the process's peak resident set so far: VmHWM, the
// high-water mark of this process image. getrusage's ru_maxrss is not
// used because it also counts the resident set of the process that
// forked this one, which can exceed a small workload's own.
func maxRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// digest folds simulated outputs, in order, into a 64-bit FNV-1a hash.
func digest(outs []output) string {
	h := fnv.New64a()
	for _, o := range outs {
		fmt.Fprintf(h, "%s=%d\n", o.name, o.value)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// metricValue is one metric of the final JSON line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the final JSON line.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// endToEndSummaries summarises each end-to-end metric over the reps.
func (res *result) endToEndSummaries() map[string]summary {
	pick := map[string]func(repStat) float64{
		mSimCycles: func(s repStat) float64 { return s.cyclesPerS },
		mWall:      func(s repStat) float64 { return s.wall },
		mSetup:     func(s repStat) float64 { return s.setup },
	}
	out := map[string]summary{mRSS: summarize([]float64{res.peakRSS})}
	for name, f := range pick {
		xs := make([]float64, len(res.reps))
		for i, s := range res.reps {
			xs[i] = f(s)
		}
		out[name] = summarize(xs)
	}
	return out
}

// print writes the report; its last line is the JSON result.
func (res *result) print(w io.Writer) error {
	o := res.o
	fmt.Fprintf(w, "workload %s  seed %d  gomaxprocs %d  %s  reps %d\n",
		o.workload, o.seed, res.procs, runtime.Version(), len(res.reps))
	fmt.Fprintf(w, "%-20s %14s %14s %14s %4s  %s\n", "metric", "median", "p25", "p75", "n", "unit")
	sums := res.endToEndSummaries()
	for _, m := range endToEnd {
		s := sums[m.name]
		fmt.Fprintf(w, "%-20s %14.6g %14.6g %14.6g %4d  %s\n", m.name, s.median, s.p25, s.p75, s.n, m.unit)
	}
	fmt.Fprintf(w, "%-20s %14.6g %14s %14s %4d  %s\n", "fail_frac",
		float64(res.failed)/float64(res.attempted), "", "", res.attempted, "reps")
	var phases []string
	for _, s := range res.reps {
		phases = append(phases, fmt.Sprintf("%.4g/%.4g", s.setup, s.run))
	}
	fmt.Fprintf(w, "reps setup_s/run_s %s\n", strings.Join(phases, " "))
	var outs []string
	for _, out := range res.outputs {
		outs = append(outs, fmt.Sprintf("%s=%d", out.name, out.value))
	}
	fmt.Fprintf(w, "outputs %s\n", strings.Join(outs, " "))
	ref := res.reference
	if ref == "" {
		ref = "none for this seed; reps checked against each other"
	}
	fmt.Fprintf(w, "digest %s  reference %s\n", res.reps[0].digest, ref)
	for _, f := range res.failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}

	line := resultLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metricValue{}}
	if o.trace {
		res.printLayers(w)
		for _, m := range perLayer {
			line.Metrics[m.name] = metricValue{res.layer[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			line.Metrics[m.name] = metricValue{sums[m.name].median, m.unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func (res *result) printLayers(w io.Writer) {
	l := res.ledger
	fmt.Fprintf(w, "host-time ledger (traced rep, %d samples of %.0f ms)\n", l.total, l.periodS*1000)
	var unlisted []string
	for name := range l.samples {
		if !isBucket(name) {
			unlisted = append(unlisted, name)
		}
	}
	sort.Strings(unlisted)
	for _, name := range unlisted {
		fmt.Fprintf(w, "  unlisted package %-12s %6d samples %6.2f%%\n", name, l.samples[name], l.pct(name))
	}
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", m.name, res.layer[m.name], m.unit)
	}
	// Every bucket but bench is a runtime_* or repro/internal bucket.
	fmt.Fprintf(w, "  simulator+runtime coverage %.2f%%  spans %s/%s-seed%d.json\n",
		100-l.pct("bench"), spanDir, res.o.workload, res.o.seed)
}

func isBucket(name string) bool {
	for _, b := range buckets {
		if b.name == name {
			return true
		}
	}
	return false
}

// runAll runs every workload in its own process, so each has its own
// peak RSS, and prints a combined line keyed <workload>/<metric>.
func runAll(o options, stdout io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	all := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range workloads {
		cmd := exec.Command(self, "--workload="+w.name, fmt.Sprintf("--seed=%d", o.seed),
			fmt.Sprintf("--seconds=%g", o.seconds), fmt.Sprintf("--trace=%t", o.trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		stdout.Write(out)
		var line resultLine
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &line)
		if err != nil || jerr != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", w.name, errors.Join(err, jerr))
		}
		all.Correct = all.Correct && line.Correct && err == nil && jerr == nil
		all.Attempted += line.Attempted
		all.Failed += line.Failed
		for k, v := range line.Metrics {
			all.Metrics[w.name+"/"+k] = v
		}
	}
	b, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !all.Correct {
		return 1
	}
	return 0
}
