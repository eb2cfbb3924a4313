//go:build !mrpcdebug

package core

import "sync"

// debugPool is a plain sync.Pool in release builds; the mrpcdebug build tag
// swaps in a checking wrapper that poisons pooled objects on Put and panics
// on a dirty Get (pooldebug.go).
type debugPool = sync.Pool

func newPool(f func() any) *debugPool { return &debugPool{New: f} }

// checkDrop is a no-op in release builds; see pooldebug.go.
func checkDrop(*ServerRecord) {}
