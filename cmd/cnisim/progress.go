package main

import (
	"fmt"
	"os"
	"sync"
	"time"
)

// progressInterval is the heartbeat period. A var so tests can shrink
// the wall-clock wait.
var progressInterval = 2 * time.Second

// progressMeter prints a heartbeat to stderr on a wall-clock ticker
// while a sweep runs: how many points have been measured and which
// cell/load was measured last. The harness invokes note from parallel
// worker goroutines; the ticker goroutine only ever reads under the
// same lock, so lines are never torn.
type progressMeter struct {
	what string
	mu   sync.Mutex
	n    int
	last string
	done chan struct{}
	wg   sync.WaitGroup
}

// startProgress returns a running meter, or nil when on (--progress) is
// false (the nil meter's methods are no-ops, so callers need no guard).
func startProgress(what string, on bool) *progressMeter {
	if !on {
		return nil
	}
	pm := &progressMeter{what: what, done: make(chan struct{})}
	pm.wg.Add(1)
	go pm.loop()
	return pm
}

func (pm *progressMeter) loop() {
	defer pm.wg.Done()
	t := time.NewTicker(progressInterval)
	defer t.Stop()
	for {
		select {
		case <-pm.done:
			return
		case <-t.C:
			pm.mu.Lock()
			n, last := pm.n, pm.last
			pm.mu.Unlock()
			if n > 0 {
				fmt.Fprintf(os.Stderr, "%s: %d points measured, last %s\n", pm.what, n, last)
			}
		}
	}
}

// note records one measured point (goroutine-safe; nil-safe).
func (pm *progressMeter) note(cell, detail string) {
	if pm == nil {
		return
	}
	pm.mu.Lock()
	pm.n++
	pm.last = cell + " " + detail
	pm.mu.Unlock()
}

// finish stops the ticker and prints the final count (nil-safe).
func (pm *progressMeter) finish() {
	if pm == nil {
		return
	}
	close(pm.done)
	pm.wg.Wait()
	fmt.Fprintf(os.Stderr, "%s: done, %d points measured\n", pm.what, pm.n)
}
