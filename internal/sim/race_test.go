//go:build race

package sim

// raceEnabled reports a -race build.
const raceEnabled = true
