package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestClassifyFixtures(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*eventHeap).siftDown":     "sim_heap",
		"repro/internal/sim.(*crossHeap).pop":          "sim_shard",
		"repro/internal/sim.(*ShardSet).runEpoch":      "sim_shard",
		"repro/internal/sim.(*Engine).next":            "sim_engine",
		"repro/internal/sim.(*Process).Sleep":          "sim_engine",
		"repro/internal/scenario.(*Endpoint).Load":     "machine",
		"repro/internal/machine.New":                   "machine",
		"repro/internal/cache.(*Cache).Load":           "cache",
		"repro/internal/msg.(*Messenger).Poll":         "msg",
		"repro/internal/workload.(*gen).nextGap":       "workload",
		"repro/internal/trace.(*Recorder).Record":      "trace",
		"repro/internal/newlayer.Func":                 "newlayer",
		"repro/internal/newlayer/sub.Func":             "newlayer",
		"runtime.chanrecv":                             "runtime_sched",
		"runtime.chansend1":                            "runtime_sched",
		"runtime.findRunnable":                         "runtime_sched",
		"runtime.scanobject":                           "runtime_gc",
		"runtime.gcDrain":                              "runtime_gc",
		"runtime.mallocgc":                             "runtime_gc",
		"runtime.(*mheap).alloc":                       "runtime_gc",
		"runtime.nanotime":                             inRuntime,
		"runtime.lock2":                                inRuntime,
		"internal/runtime/maps.(*Map).getWithKeySmall": inRuntime,
		"runtime.memmove":                              "",
		"math.Log":                                     "",
		"main.measure":                                 "bench",
		"runtime/pprof.profileWriter":                  "bench",
	} {
		if got := classify(fn); got != want {
			t.Errorf("classify(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestBucketStack(t *testing.T) {
	for _, c := range []struct {
		frames []string // leaf first
		want   string
	}{
		{[]string{"runtime.nanotime", "runtime.casgstatus", "runtime.chanrecv", "repro/internal/sim.(*Process).block"}, "runtime_sched"},
		{[]string{"runtime.lock2", "runtime.(*mheap).alloc", "runtime.mallocgc"}, "runtime_gc"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime.mapaccess2_faststr", "repro/internal/sim.(*Stats).Get"}, "runtime_other"},
		{[]string{"runtime.nanotime", "time.Now", "main.oneRep"}, "runtime_other"},
		{[]string{"runtime.usleep", "runtime.sysmon", "runtime.mstart"}, "runtime_other"},
		{[]string{"math.Log", "repro/internal/workload.(*gen).exp"}, "workload"},
		{[]string{"runtime.memmove", "repro/internal/msg.(*Messenger).Send"}, "msg"},
		{[]string{"runtime.memmove", "runtime.growslice", "repro/internal/msg.(*Messenger).Send"}, "runtime_gc"},
		{[]string{"compress/flate.(*compressor).deflate", "compress/gzip.(*Writer).Write"}, "bench"},
	} {
		if got := bucketStack(c.frames); got != c.want {
			t.Errorf("bucketStack(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// TestLedgerOfRecordedProfile records a short CPU profile of a small
// simulation and checks the ledger accounts for every sample.
func TestLedgerOfRecordedProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		torusHotspot(1, true, false)
	}
	pprof.StopCPUProfile()
	l, err := buildLedger(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if l.total == 0 {
		t.Skip("no CPU samples recorded")
	}
	sum := 0.0
	for b := range l.samples {
		sum += l.pct(b)
	}
	if math.Abs(sum-100) > 0.1 {
		t.Errorf("bucket shares sum to %.3f%%, want 100%%", sum)
	}
	if l.samples["sim_engine"]+l.samples["sim_heap"]+l.samples["runtime_sched"] == 0 {
		t.Errorf("no samples in the engine or the scheduler: %v", l.samples)
	}
	if l.periodS <= 0 {
		t.Errorf("sample period %v s", l.periodS)
	}
}
