package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestTraceFlags pins the global telemetry options: they are taken
// from either side of the command word in either spelling, a missing
// or malformed value is an error, and --progress is boolean.
func TestTraceFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	stdout := captureStdout(t, func() {
		if err := cli([]string{"--trace=" + path, "-sample-every", "250", "latency", "--progress", "--bus=memory"}); err != nil {
			t.Errorf("globals on both sides of the command: %v", err)
		}
	})
	if !strings.Contains(stdout, "round-trip") {
		t.Errorf("latency printed %q", stdout)
	}
	assertChromeTrace(t, path)
	if err := run("list", []string{"--progress=false"}); err != nil {
		t.Errorf("--progress=false: %v", err)
	}
	for _, args := range [][]string{
		{"latency", "--trace"},
		{"latency", "--sample-every"},
		{"latency", "--sample-every=soon"},
		{"list", "--progress=perhaps"},
		// Sampling is written into the trace file, so it needs one.
		{"list", "--sample-every=100"},
	} {
		if err := cli(args); err == nil {
			t.Errorf("cnisim %v should error", args)
		}
	}
}

// TestGlobalTraceFlag runs a stock command under --trace end to end:
// the collector must capture the machine the command builds and write
// a Chrome trace JSON document at finish.
func TestGlobalTraceFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "latency.json")
	if err := run("latency", []string{"--ni=CNI512Q", "--bus=memory", "--size=32", "--trace=" + path, "--sample-every=200"}); err != nil {
		t.Fatalf("traced latency run: %v", err)
	}
	assertChromeTrace(t, path)

	// A command that builds no machines must say so rather than write
	// an empty trace.
	if err := run("list", []string{"--trace=" + path}); err == nil || !strings.Contains(err.Error(), "no simulated machines") {
		t.Errorf("traced machine-less command: %v", err)
	}
}

// TestRunTraceCommand runs the dedicated command on a micro target
// and checks the target-word validation.
func TestRunTraceCommand(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bw.json")
	err := run("trace", []string{"bandwidth", "--ni=CNI512Q", "--size=256", "--out=" + path})
	if err != nil {
		t.Fatalf("trace bandwidth: %v", err)
	}
	assertChromeTrace(t, path)

	// Options before the command join the trace command's own, and the
	// later of --trace and its alias --out names the file.
	early, late := filepath.Join(t.TempDir(), "early.json"), filepath.Join(t.TempDir(), "late.json")
	captureStdout(t, func() {
		if err := cli([]string{"--trace=" + early, "trace", "latency", "--out=" + late}); err != nil {
			t.Errorf("trace with --trace before the command: %v", err)
		}
	})
	assertChromeTrace(t, late)
	if _, err := os.Stat(early); err == nil {
		t.Errorf("%s written; --out=%s came later", early, late)
	}

	if err := run("trace", nil); err == nil || !strings.Contains(err.Error(), "loadsweep") {
		t.Errorf("trace without a target should list the valid targets, got %v", err)
	}
	if err := run("trace", []string{"teleport"}); err == nil || !strings.Contains(err.Error(), "teleport") {
		t.Errorf("trace with an unknown target should name it, got %v", err)
	}
}

// TestTraceSampleEveryZero pins that --sample-every=0 turns the trace
// command's sampler off, while its default period samples.
func TestTraceSampleEveryZero(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rtt.json")
	for _, c := range []struct {
		args []string
		zero bool
	}{
		{[]string{"trace", "latency", "--out=" + path}, false},
		{[]string{"trace", "latency", "--sample-every=0", "--out=" + path}, true},
		{[]string{"--sample-every=0", "trace", "latency", "--out=" + path}, true},
	} {
		stderr := captureStderr(t, func() {
			captureStdout(t, func() {
				if err := cli(c.args); err != nil {
					t.Errorf("cnisim %v: %v", c.args, err)
				}
			})
		})
		if got := strings.Contains(stderr, " 0 samples,"); got != c.zero {
			t.Errorf("cnisim %v: wrote zero samples = %v, want %v\n%s", c.args, got, c.zero, stderr)
		}
	}
}

// TestTraceSummaryReportsOverwritten pins the truncation contract: a
// wrapped trace ring must never export a
// clipped file silently. The always-printed summary line carries the
// overwritten count (including the healthy zero, so its absence is
// visible), and a wrapped ring adds an explicit warning.
func TestTraceSummaryReportsOverwritten(t *testing.T) {
	wrapped := func(notes int) []trace.Capture {
		r := trace.NewRecorder(sim.NewEngine(), 2, 4)
		for i := 0; i < notes; i++ {
			r.Note(1, trace.KInject, uint64(i), -1, 1, 0, 0, 0)
		}
		return []trace.Capture{{Label: "test", Rec: r}}
	}
	cases := []struct {
		notes int
		want  string
		warn  bool
	}{
		{3, "0 overwritten", false},
		{10, "6 overwritten", true}, // 10 notes into a 4-slot ring
	}
	for _, c := range cases {
		path := filepath.Join(t.TempDir(), "ow.json")
		stderr := captureStderr(t, func() {
			if err := writeTraceFile(path, wrapped(c.notes)); err != nil {
				t.Fatalf("writeTraceFile(%d notes): %v", c.notes, err)
			}
		})
		if !strings.Contains(stderr, c.want) {
			t.Errorf("%d notes: summary %q does not carry %q", c.notes, stderr, c.want)
		}
		if got := strings.Contains(stderr, "warning:"); got != c.warn {
			t.Errorf("%d notes: warning printed = %v, want %v\n%s", c.notes, got, c.warn, stderr)
		}
	}
}

// captureStderr runs fn with os.Stderr redirected to a pipe.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	defer func() {
		w.Close()
		os.Stderr = old
	}()
	fn()
	w.Close()
	os.Stderr = old
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, rerr := r.Read(buf)
		b.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	return b.String()
}

// assertChromeTrace parses path as a Chrome trace-event document and
// requires a non-empty event list.
func assertChromeTrace(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("trace file not written: %v", err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s is not Chrome trace JSON: %v", path, err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatalf("%s has no trace events", path)
	}
}

// TestProgressMeter drives the heartbeat directly and checks the nil-meter path stays safe when
// --progress is off.
func TestProgressMeter(t *testing.T) {
	var off *progressMeter
	off.note("cell", "detail")
	off.finish() // nil-safe no-ops

	if startProgress("testsweep", false) != nil {
		t.Fatal("startProgress returned a meter with --progress off")
	}
	// The harness feeds the meter from its worker goroutines while the
	// ticker reads it; a short period makes the two overlap.
	progressInterval = time.Millisecond
	defer func() { progressInterval = 2 * time.Second }()
	var pm *progressMeter
	stderr := captureStderr(t, func() {
		pm = startProgress("testsweep", true)
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 100; i++ {
					pm.note("CNI512Q/torus", "@ 4.0 MB/s offered")
				}
			}()
		}
		wg.Wait()
		pm.finish()
	})
	if pm.n != 400 {
		t.Errorf("meter counted %d points, want 400", pm.n)
	}
	if !strings.Contains(stderr, "testsweep: done, 400 points measured") {
		t.Errorf("final heartbeat missing:\n%s", stderr)
	}
}
