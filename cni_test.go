package cni

import (
	"strings"
	"testing"
)

func TestExperimentDispatch(t *testing.T) {
	// Static tables are cheap; verify dispatch plumbing end to end.
	for _, name := range []string{"table1", "table2", "table3", "table4"} {
		tb, _, err := ExperimentData(name, RunOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tb.String() == "" || len(tb.Rows) == 0 {
			t.Fatalf("%s rendered empty", name)
		}
	}
	if _, _, err := ExperimentData("nope", RunOptions{}); err == nil {
		t.Fatal("unknown experiment should error")
	}
	for _, name := range ExperimentNames() {
		if strings.TrimSpace(name) == "" {
			t.Fatal("empty experiment name listed")
		}
	}
}

func TestPublicQueue(t *testing.T) {
	q := NewQueue[string](4)
	if !q.TryEnqueue("a") || !q.TryEnqueue("b") {
		t.Fatal("enqueue failed")
	}
	if v, ok := q.TryDequeue(); !ok || v != "a" {
		t.Fatalf("dequeue = %q,%v", v, ok)
	}
	var r Register[int]
	r.Publish(3)
	if v, ok := r.Take(); !ok || v != 3 {
		t.Fatalf("register take = %d,%v", v, ok)
	}
}

func TestPublicRoundTrip(t *testing.T) {
	cfg := Config{Nodes: 2, NI: CNI512Q, Bus: MemoryBus}
	rtt := RoundTrip(cfg, 64, 2)
	if rtt == 0 {
		t.Fatal("zero round trip")
	}
	if us := Microseconds(rtt); us <= 0 || us > 100 {
		t.Fatalf("implausible: %.2f us", us)
	}
}

func TestPublicBenchmarkList(t *testing.T) {
	names := Benchmarks()
	if len(names) != 5 {
		t.Fatalf("Benchmarks = %v", names)
	}
	if _, err := RunBenchmark("nope", Config{Nodes: 2, NI: NI2w, Bus: MemoryBus}); err == nil {
		t.Fatal("unknown benchmark should error")
	}
}

func TestConfigValidationSurface(t *testing.T) {
	bad := Config{Nodes: 2, NI: CNI16Qm, Bus: IOBus}
	if bad.Validate() == nil {
		t.Fatal("CNI16Qm@io must be invalid")
	}
	ok := Config{Nodes: 2, NI: DMA, Bus: MemoryBus}
	if err := ok.Validate(); err != nil {
		t.Fatalf("DMA@memory should validate: %v", err)
	}
}

func TestPublicQueueOfByteSlices(t *testing.T) {
	// The facade's generic Queue alias carries variable-length
	// payloads as byte slices.
	q := NewQueue[[]byte](8)
	q.Enqueue([]byte("xyz"))
	if v, ok := q.TryDequeue(); !ok || string(v) != "xyz" {
		t.Fatalf("got %q, %v", v, ok)
	}
}
