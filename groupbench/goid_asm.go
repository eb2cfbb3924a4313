//go:build amd64 || arm64

package main

// getg returns the address of the calling goroutine's runtime descriptor.
// The tracer keys per-goroutine span stacks on it: it is unique among live
// goroutines and costs one load, where parsing runtime.Stack costs
// microseconds. A descriptor is reused after its goroutine exits, which the
// tracer tolerates (a stale entry is older than any span that could claim it).
func getg() uintptr
