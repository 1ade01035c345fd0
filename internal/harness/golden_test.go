package harness

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/params"
)

var update = flag.Bool("update", false, "rewrite the golden table files from the current model")

// golden is one pinned experiment run: its rendered table and, for the
// sweeps, the machine-readable Data (nil for the static tables).
type golden func() (*Table, *Data)

// tableOnly adapts a table generator to a golden with no Data.
func tableOnly(fn func() *Table) golden {
	return func() (*Table, *Data) { return fn(), nil }
}

// goldenTables lists the fast experiments (static tables plus the
// 2-node microbenchmark figures) whose full rendered text is pinned.
// The determinism contract (DESIGN.md §6) needs more than the two
// scalar canaries: a silent drift in any one cell must fail CI, not
// hide inside an unchanged table shape. The sweeps also pin their Data
// as <name>.csv and <name>.json (Extra included) from the same run, so
// the export schema is held to the byte along with the table.
func goldenTables() map[string]golden {
	return map[string]golden{
		"table1":      tableOnly(Table1),
		"table2":      tableOnly(Table2),
		"table3":      tableOnly(Table3),
		"table4":      tableOnly(Table4),
		"fig6-memory": tableOnly(func() *Table { return Fig6(params.MemoryBus) }),
		"fig6-io":     tableOnly(func() *Table { return Fig6(params.IOBus) }),
		"fig6-alt":    tableOnly(Fig6Alt),
		"fig7-memory": tableOnly(func() *Table { return Fig7(params.MemoryBus) }),
		"fig7-io":     tableOnly(func() *Table { return Fig7(params.IOBus) }),
		"fig7-alt":    tableOnly(Fig7Alt),
		// The full load-sweep table (per NI × topology ladders to
		// saturation): pins the workload/telemetry subsystem — the
		// generators' seeded schedules, the histogram percentiles, and
		// the knee detection — to the byte.
		"loadsweep": func() (*Table, *Data) {
			t, d, _ := LoadSweep(SweepOptions{})
			return t, d
		},
		// One narrowed fault-sweep cell (the full ladder over the whole
		// grid is minutes of simulation): pins the fault layer, the
		// reliable transport's recovery, and the ladder's Data schema.
		"faultsweep": func() (*Table, *Data) {
			t, d, _ := FaultSweep(narrowFault(3, []float64{0, 1e-3}))
			return t, d
		},
		// The datacenter pack's two tables: the RPC fan-out tail ladder
		// (straggler join, overload point) and the collective schedule
		// grid. Pinning both fixes the dcn subsystem's arrival model,
		// join/hedge logic, and schedule step maths to the byte.
		"rpc": func() (*Table, *Data) {
			t, d, _ := RPCSweep(RPCOptions{})
			return t, d
		},
		"collective": func() (*Table, *Data) {
			t, d, _ := CollectiveSweep(CollectiveOptions{})
			return t, d
		},
	}
}

func TestGoldenTables(t *testing.T) {
	for name, fn := range goldenTables() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tb, d := fn()
			checkGolden(t, name+".txt", tb.String())
			if d == nil {
				return
			}
			raw, err := d.JSON()
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, name+".json", string(raw))
			checkGolden(t, name+".csv", d.CSV())
		})
	}
}

// checkGolden compares got against testdata/golden/<file>, or rewrites
// the file under -update.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", file)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with `go test ./internal/harness -run TestGoldenTables -update`): %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s drifted from golden at line %d:\n  got:  %q\n  want: %q\n(a deliberate model change must regenerate with -update)", file, i+1, g, w)
		}
	}
}
