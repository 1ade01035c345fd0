package cni

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestExperimentRegistryConformance pins the registry's structural
// contract: unique non-empty names, non-empty titles and tags, and
// ExperimentNames() exactly mirroring registry order (the registry is
// the single source of truth — there is no hand-maintained name list
// left to drift).
func TestExperimentRegistryConformance(t *testing.T) {
	reg := Experiments()
	if len(reg) == 0 {
		t.Fatal("empty experiment registry")
	}
	names := ExperimentNames()
	if len(names) != len(reg) {
		t.Fatalf("ExperimentNames has %d entries, registry %d", len(names), len(reg))
	}
	seen := make(map[string]bool)
	for i, e := range reg {
		if strings.TrimSpace(e.Name) == "" {
			t.Errorf("registry[%d] has an empty name", i)
		}
		if seen[e.Name] {
			t.Errorf("duplicate experiment name %q", e.Name)
		}
		seen[e.Name] = true
		if strings.TrimSpace(e.Title) == "" {
			t.Errorf("%s: empty title", e.Name)
		}
		if len(e.Tags) == 0 {
			t.Errorf("%s: no tags", e.Name)
		}
		if e.Run == nil {
			t.Errorf("%s: nil Run", e.Name)
		}
		if names[i] != e.Name {
			t.Errorf("ExperimentNames()[%d] = %q, registry order has %q", i, names[i], e.Name)
		}
	}
	// Unknown names must be rejected with the valid list.
	if _, _, err := ExperimentData("nope", RunOptions{}); err == nil || !strings.Contains(err.Error(), "table1") {
		t.Errorf("unknown-experiment error should list valid names, got %v", err)
	}
}

// TestExperimentRegistryRenders runs every registered experiment and
// checks that it renders a well-formed table (every row as wide as
// the header) and that its Data round-trips through JSON. The
// macrobenchmark sweeps are narrowed to one app to bound the cost, and
// the rpc and collective sweeps to one NI × fabric cell: their full
// grids are pinned byte for byte by internal/harness's golden tables.
// Everything but the static tables is skipped in -short mode.
func TestExperimentRegistryRenders(t *testing.T) {
	cheap := map[string]bool{"table1": true, "table2": true, "table3": true, "table4": true}
	nis, topos := []NIKind{CNI512Q}, []Topology{TopoFlat}
	narrow := map[string]func() (*Table, *Data){
		"rpc": func() (*Table, *Data) {
			tb, d, _ := RPCSweep(RPCOptions{NIs: nis, Topos: topos})
			return tb, d
		},
		"collective": func() (*Table, *Data) {
			tb, d, _ := CollectiveSweep(CollectiveOptions{NIs: nis, Topos: topos})
			return tb, d
		},
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			if testing.Short() && !cheap[e.Name] {
				t.Skip("simulation-heavy experiment in -short mode")
			}
			t.Parallel()
			run := func() (*Table, *Data) { return e.Run(RunOptions{Apps: []string{"spsolve"}}) }
			if n, ok := narrow[e.Name]; ok {
				run = n
			}
			tb, d := run()
			if tb == nil || d == nil {
				t.Fatal("Run returned nil table or data")
			}
			if tb.String() == "" || len(tb.Rows) == 0 {
				t.Fatal("table rendered empty")
			}
			for r, row := range tb.Rows {
				if len(row) != len(tb.Header) {
					t.Errorf("table row %d has %d cells, header %d", r, len(row), len(tb.Header))
				}
			}
			if d.Name != e.Name {
				t.Errorf("data name %q != experiment name %q", d.Name, e.Name)
			}
			if len(d.Rows) == 0 || len(d.Header) == 0 {
				t.Fatal("data grid empty")
			}
			for r, row := range d.Rows {
				if len(row) != len(d.Header) {
					t.Errorf("data row %d has %d cells, header %d", r, len(row), len(d.Header))
				}
			}
			raw, err := d.JSON()
			if err != nil {
				t.Fatalf("JSON: %v", err)
			}
			var rt Data
			if err := json.Unmarshal(raw, &rt); err != nil {
				t.Fatalf("JSON round-trip: %v", err)
			}
			if rt.Name != d.Name || rt.Title != d.Title ||
				!reflect.DeepEqual(rt.Header, d.Header) || !reflect.DeepEqual(rt.Rows, d.Rows) {
				t.Error("Data did not survive the JSON round-trip")
			}
			if csv := d.CSV(); strings.Count(csv, "\n") != len(d.Rows)+1 {
				t.Errorf("CSV has %d lines, want %d", strings.Count(csv, "\n"), len(d.Rows)+1)
			}
		})
	}
}
