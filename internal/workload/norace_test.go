//go:build !race

package workload

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
