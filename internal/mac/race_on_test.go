//go:build race

package mac

// raceEnabled reports a -race build, whose runtime inflates allocation
// counts.
const raceEnabled = true
