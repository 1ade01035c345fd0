package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The ledger buckets flat CPU-profile samples. A sample's frames are
// read from the leaf up:
//   - repro/internal/<pkg> frames name their package's layer (package
//     sim is split into heap, shard and engine), the benchmark's own
//     frames name "bench";
//   - a run of runtime frames at the leaf is charged to the first
//     scheduler or collector function in it, so a lock, atomic or clock
//     read inside a goroutine switch counts as switching; a run with
//     neither is runtime_other;
//   - other standard-library frames (math, sort, sync, time, ...) and
//     copy helpers name no layer: their time goes to whoever called them.

// internalPrefix is the import-path prefix of the simulator's packages.
const internalPrefix = "repro/internal/"

// pkgBucket maps simulator packages whose bucket is not their own name.
// Any other package is its own bucket, so a new package never vanishes
// into another's share.
var pkgBucket = map[string]string{
	"scenario": "machine",
}

// simBucket splits package sim by the type a function belongs to; its
// other functions are engine bookkeeping.
var simBucket = []struct{ prefix, bucket string }{
	{"(*eventHeap).", "sim_heap"},
	{"(*ShardSet).", "sim_shard"},
	{"(*crossHeap).", "sim_shard"},
	{"crossBefore", "sim_shard"},
}

// runtimeSched are the runtime's goroutine-switching functions: channel
// handoff, parking and readying, and the scheduler loop.
var runtimeSched = []string{
	"chansend", "chanrecv", "send", "recv", "closechan", "selectgo",
	"chanparkcommit", "parkunlock_c", "gopark", "goready", "ready",
	"park_m", "schedule", "findRunnable", "execute", "gogo", "mcall",
	"gosched", "goschedImpl", "goexit0", "goexit1", "casgstatus",
	"runqget", "runqput", "runqsteal", "runqgrab", "globrunq", "wakep",
	"startm", "stopm", "mPark", "handoffp", "acquirep", "releasep",
	"pidleget", "pidleput", "stealWork", "resetspinning", "checkTimers",
	"notesleep", "notewakeup", "newproc", "gfget", "gfput", "dropg",
	"acquireSudog", "releaseSudog", "(*waitq).", "(*gQueue).",
	"(*randomEnum).", "netpoll", "(*timers).",
}

// runtimeGC are the runtime's garbage-collection and heap-allocation
// functions.
var runtimeGC = []string{
	"gc", "scan", "mark", "sweep", "bgsweep", "bgscavenge", "greyobject",
	"findObject", "heapBits", "wbBuf", "bulkBarrier", "mallocgc",
	"newobject", "newarray", "makeslice", "growslice", "nextFreeFast",
	"deductAssistCredit", "sysAlloc", "sysUsed", "sysUnused", "madvise",
	"publicationBarrier", "stopTheWorld", "startTheWorld", "forEachP",
	"(*gc", "(*mspan).", "(*mheap).", "(*mcentral).", "(*mcache).",
	"(*pageAlloc).", "(*scavenger", "(*sweep", "(*spanSet).",
	"(*fixalloc).", "(*lfstack).", "(*mSpanList).", "(*stackScanState).",
}

// runtimeTransparent are runtime helpers whose time belongs to their
// caller: a copy done for the model is the model's work.
var runtimeTransparent = []string{"memmove", "memclrNoHeapPointers", "typedmemmove", "systemstack"}

// inRuntime is classify's answer for a runtime frame that names no
// layer by itself.
const inRuntime = "runtime"

// classify returns the bucket frame fn names, inRuntime for another
// runtime frame, or "" for a frame that names nothing.
func classify(fn string) string {
	switch {
	case strings.HasPrefix(fn, internalPrefix):
		rest := fn[len(internalPrefix):]
		pkg := rest[:strings.IndexAny(rest+".", "./")]
		if pkg == "sim" {
			sym := rest[len("sim."):]
			for _, s := range simBucket {
				if strings.HasPrefix(sym, s.prefix) {
					return s.bucket
				}
			}
			return "sim_engine"
		}
		if b, ok := pkgBucket[pkg]; ok {
			return b
		}
		return pkg
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "runtime/pprof."):
		return "bench"
	case strings.HasPrefix(fn, "runtime."):
		sym := fn[len("runtime."):]
		switch {
		case hasAnyPrefix(sym, runtimeTransparent):
			return ""
		case hasAnyPrefix(sym, runtimeSched):
			return "runtime_sched"
		case hasAnyPrefix(sym, runtimeGC):
			return "runtime_gc"
		}
		return inRuntime
	case strings.HasPrefix(fn, "internal/runtime/"), strings.HasPrefix(fn, "runtime/internal/"):
		return inRuntime
	}
	return ""
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// ledger is a CPU profile bucketed by layer.
type ledger struct {
	samples map[string]int64 // bucket -> sample count
	total   int64
	periodS float64 // seconds per sample
}

// bucketStack returns the bucket of one sample, given its frames from
// the leaf up. A stack that names nothing is the benchmark's.
func bucketStack(frames []string) string {
	runtimeRun := false
	for _, fn := range frames {
		switch b := classify(fn); {
		case b == inRuntime:
			runtimeRun = true
		case b == "":
		case runtimeRun && !strings.HasPrefix(b, "runtime_"):
			return "runtime_other" // left the runtime without a sched or GC frame
		default:
			return b
		}
	}
	if runtimeRun {
		return "runtime_other"
	}
	return "bench"
}

// pct returns bucket b's share of all samples in percent.
func (l ledger) pct(b string) float64 {
	if l.total == 0 {
		return 0
	}
	return 100 * float64(l.samples[b]) / float64(l.total)
}

// buildLedger decodes a gzipped pprof CPU profile into a ledger.
func buildLedger(gz []byte) (ledger, error) {
	p, err := parseProfile(gz)
	if err != nil {
		return ledger{}, err
	}
	l := ledger{samples: map[string]int64{}, periodS: float64(p.period) / 1e9}
	for _, s := range p.samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				frames = append(frames, p.strings[p.funcName[fid]])
			}
		}
		l.samples[bucketStack(frames)] += s.count
		l.total += s.count
	}
	return l, nil
}

// profile is the part of profile.proto the ledger reads.
type profile struct {
	strings  []string
	funcName map[uint64]int64    // function id -> name string index
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost inlined first
	samples  []profSample
	period   int64 // nanoseconds per sample
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64    // the first sample value: samples
}

// parseProfile decodes the gzipped protobuf runtime/pprof writes.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{funcName: map[uint64]int64{}, locFuncs: map[uint64][]uint64{}}
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s profSample
			var vals []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			})
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		case 12: // period
			p.period = int64(v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("profile: function name outside the string table")
		}
	}
	return p, nil
}

// appendVarints appends a repeated integer field's values: v for one
// unpacked element, or every varint of a packed payload b.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField calls fn for every field of a protobuf message: v holds a
// varint or fixed-width value, b a length-delimited payload (nil
// otherwise).
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := varint(msg)
		if n == 0 {
			return errors.New("profile: truncated field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = varint(msg)
			if n == 0 {
				return errors.New("profile: truncated varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: truncated fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := varint(msg)
			if n == 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: truncated bytes field")
			}
			b = msg[n : n+int(l)] // non-nil even when empty
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: truncated fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varint decodes one base-128 varint, returning 0 bytes read when b is
// truncated.
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
