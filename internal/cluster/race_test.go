//go:build race

package cluster

// raceEnabled reports a -race build, whose instrumentation adds
// allocations that the allocation gate does not count.
const raceEnabled = true
