package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the CLI golden files from the current output")

// cliGoldens are invocations whose stdout is pinned byte for byte in
// testdata/<file>. Each runs in about a second or less.
var cliGoldens = []struct {
	file string
	args []string
}{
	{"list.txt", []string{"list"}},
	{"list_json.txt", []string{"list", "--json"}},
	{"table2.txt", []string{"table2"}},
	{"latency.txt", []string{"latency"}},
	{"bandwidth.txt", []string{"bandwidth"}},
	{"incast.txt", []string{"incast"}},
	{"exchange.txt", []string{"exchange"}},
	{"bench.txt", []string{"bench"}},
	{"loadsweep_point.txt", []string{"loadsweep", "--load=8", "--ni=CNI512Q", "--topology=torus"}},
	{"rpc_point.json", []string{"rpc", "--fanout=8", "--clients=1000", "--json=-"}},
	{"collective_run.json", []string{"collective", "--schedule=ring-allreduce", "--json=-"}},
}

// TestCLIGoldens pins the stdout of the fast commands with default
// flags, so a change to option parsing cannot move what they print.
// Regenerate deliberately with `go test ./cmd/cnisim -run
// TestCLIGoldens -update`.
func TestCLIGoldens(t *testing.T) {
	for _, g := range cliGoldens {
		t.Run(g.file, func(t *testing.T) {
			got := captureStdout(t, func() {
				if err := run(g.args[0], g.args[1:]); err != nil {
					t.Fatalf("cnisim %s: %v", strings.Join(g.args, " "), err)
				}
			})
			checkGolden(t, g.file, got)
		})
	}
}

// checkGolden compares got against testdata/file, or rewrites the file
// under -update.
func checkGolden(t *testing.T, file, got string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}
