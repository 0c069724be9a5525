//go:build race

package server

// raceEnabled reports a build with the race detector, which drops
// sync.Pool items at random: the encoder's pooled buffer is then
// reallocated on some hits, so allocation guards cannot hold.
const raceEnabled = true
