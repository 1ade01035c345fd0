package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Every experiment in this package is a grid of independent cells —
// each one builds its own machine, its own engine, its own stats — so
// the grid fans out over a worker pool and the rows are assembled from
// the completed cells in index order. Output is byte-identical to a
// serial run: parallelism only changes which host core evaluates a
// cell, never the simulated schedule inside it.

// CellPanic is a panic raised while measuring one sweep cell, re-raised
// on the sweep's calling goroutine with the cell's label.
type CellPanic struct {
	Cell  string // the NI/fabric label, e.g. "CNI16Q/torus"
	Value any    // what the cell panicked with (*sim.ProcessPanic for a process body)
}

func (cp *CellPanic) Error() string { return fmt.Sprintf("sweep cell %s: %v", cp.Cell, cp.Value) }

// Unwrap exposes an error-valued panic (a *sim.ProcessPanic) to errors.As.
func (cp *CellPanic) Unwrap() error {
	err, _ := cp.Value.(error)
	return err
}

// runCells evaluates n independent cells with up to GOMAXPROCS host
// workers and returns the results in cell-index order. A panic in a
// cell comes back out of runCells on the calling goroutine, as in a
// serial run: workers stop claiming cells after the first panic, so
// every lower-index cell has been claimed and finishes, and the
// lowest-index panic — the one a serial run would hit — is re-raised.
func runCells[T any](n int, run func(i int) T) []T {
	out := make([]T, n)
	// n below GOMAXPROCS fans out one worker per cell; at GOMAXPROCS 1
	// the cells run inline.
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i] = run(i)
		}
		return out
	}
	var next atomic.Int64
	var failed atomic.Bool
	panics := make([]any, n)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panics[i] = r
							failed.Store(true)
						}
					}()
					out[i] = run(i)
				}()
			}
		}()
	}
	wg.Wait()
	for _, r := range panics {
		if r != nil {
			panic(r)
		}
	}
	return out
}

// grid evaluates rows×cols cells and returns [row][col] results.
func grid[T any](rows, cols int, run func(r, c int) T) [][]T {
	flat := runCells(rows*cols, func(i int) T { return run(i/cols, i%cols) })
	out := make([][]T, rows)
	for r := range out {
		out[r] = flat[r*cols : (r+1)*cols]
	}
	return out
}
