//go:build !race

package repro

// raceEnabled reports a -race build.
const raceEnabled = false
