package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of the benchmark: a rep, its setup, run
// and digest phases, or a micro probe. Spans stay in memory until the
// run ends.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root span
	Rep     int    `json:"rep"`    // rep index, 0 outside reps
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the tracer was created
	DurNS   int64  `json:"dur_ns"`
}

type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, rep int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Rep: rep, Name: name,
		StartNS: time.Since(t.epoch).Nanoseconds()})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	s := &t.spans[id-1]
	s.DurNS = time.Since(t.epoch).Nanoseconds() - s.StartNS
}

// add records a span whose extent was measured elsewhere (the setup
// and run phases that happen inside one call into the simulator).
func (t *tracer) add(name string, parent, rep int, start time.Time, dur time.Duration) {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Rep: rep, Name: name,
		StartNS: start.Sub(t.epoch).Nanoseconds(), DurNS: dur.Nanoseconds()})
}

// spanFile is the JSON document a traced run writes.
type spanFile struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	TracedRep  int                `json:"traced_rep"`
	Spans      []span             `json:"spans"`
	Ledger     map[string]int64   `json:"ledger_samples"`
	Metrics    map[string]float64 `json:"metrics"`
}

// write stores f as dir/<workload>-seed<N>.json.
func (f spanFile) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", f.Workload, f.Seed))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
