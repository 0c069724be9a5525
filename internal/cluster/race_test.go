//go:build race

package cluster

// raceEnabled reports a build with the race detector, which drops
// sync.Pool items at random, so allocation guards cannot hold.
const raceEnabled = true
