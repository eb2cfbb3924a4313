//go:build !race

package mrpc_test

// raceEnabled reports whether the race detector is built in.
const raceEnabled = false
