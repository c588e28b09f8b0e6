//go:build !race

package testbed

// raceEnabled reports a -race build, whose sync.Pool drops pooled
// objects at random and so inflates allocation counts.
const raceEnabled = false
