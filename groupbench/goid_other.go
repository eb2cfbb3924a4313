//go:build !amd64 && !arm64

package main

import "runtime"

// getg returns the calling goroutine's id, parsed from runtime.Stack. It
// stands in for the descriptor address on architectures without the
// assembly helper; it is correct but costs microseconds per span, which
// shows as tracing overhead.
func getg() uintptr {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	var id uintptr
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uintptr(c-'0')
	}
	return id
}
