//go:build !race

package core

// raceEnabled reports whether the race detector is built in.
const raceEnabled = false
