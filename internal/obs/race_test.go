//go:build race

package obs

// raceEnabled reports a build with the race detector, which allocates
// where the plain build does not (a serve span and an event take 8
// allocations there, 6 here), so the allocation and memory guards skip
// it.
const raceEnabled = true
