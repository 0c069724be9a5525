//go:build race

package tracestore

// raceEnabled reports a build with the race detector, whose shadow
// allocations distort the heap the memory guards measure, so they skip
// it.
const raceEnabled = true
